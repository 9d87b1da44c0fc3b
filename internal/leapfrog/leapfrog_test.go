package leapfrog

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
)

func TestTriangleSmall(t *testing.T) {
	e := [][]Value{{1, 2}, {2, 3}, {1, 3}, {3, 1}, {2, 1}}
	r1 := relation.FromTuples("R1", []string{"a", "b"}, e)
	r2 := relation.FromTuples("R2", []string{"b", "c"}, e)
	r3 := relation.FromTuples("R3", []string{"a", "c"}, e)
	rels := []*relation.Relation{r1, r2, r3}
	order := []string{"a", "b", "c"}
	gotRel := relation.New("g", order...)
	st, err := JoinRelations(rels, order, Options{Sink: relation.NewColumnWriter(gotRel)})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NaiveJoin(rels, order)
	if int(st.Results) != want.Len() {
		t.Fatalf("results=%d want %d", st.Results, want.Len())
	}
	if want.Len() == 0 {
		t.Fatal("instance should have triangles")
	}
	if !gotRel.SortDedup().Equal(want.Renamed("g")) {
		t.Fatalf("tuples mismatch:\n%v\nvs\n%v", gotRel, want)
	}
}

func TestPaperRunningExample(t *testing.T) {
	// Fig. 2 / Fig. 3: query Eq.(2) over the 5 example relations; server S0
	// in Fig. 3(b) finds T5 = {(1,2,2,1,1),(1,2,2,2,...)}. We check the full
	// (non-partitioned) join against the naive oracle.
	q := hypergraph.PaperExample()
	db := hypergraph.Database{
		"R1": relation.FromTuples("R1", []string{"a", "b", "c"}, [][]Value{{1, 2, 2}, {1, 2, 1}, {2, 1, 1}, {1, 4, 1}}),
		"R2": relation.FromTuples("R2", []string{"a", "d"}, [][]Value{{1, 1}, {2, 1}, {3, 1}, {1, 4}}),
		"R3": relation.FromTuples("R3", []string{"c", "d"}, [][]Value{{1, 1}, {2, 1}, {1, 2}, {2, 2}}),
		"R4": relation.FromTuples("R4", []string{"b", "e"}, [][]Value{{3, 2}, {4, 2}, {5, 2}, {4, 1}}),
		"R5": relation.FromTuples("R5", []string{"c", "e"}, [][]Value{{4, 1}, {5, 1}, {3, 2}, {4, 2}}),
	}
	rels, err := q.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"a", "b", "c", "d", "e"}
	st, err := JoinRelations(rels, order, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NaiveJoin(rels, order)
	if int(st.Results) != want.Len() {
		t.Fatalf("results=%d want %d", st.Results, want.Len())
	}
}

// The central correctness property: Leapfrog == naive join on random
// queries and databases, across random attribute orders.
func TestLeapfrogMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, rels := testutil.RandQueryInstance(rng, 4, 4, 25, 6)
		attrs := q.Attrs()
		// Random permutation as the global order.
		order := append([]string(nil), attrs...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		st, err := JoinRelations(rels, order, Options{})
		if err != nil {
			return false
		}
		want := relation.NaiveJoin(rels, attrs)
		return int(st.Results) == want.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestEmitTuplesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, rels := testutil.RandQueryInstance(rng, 3, 3, 30, 5)
	order := q.Attrs()
	out := relation.New("out", order...)
	_, err := JoinRelations(rels, order, Options{Sink: relation.NewColumnWriter(out)})
	if err != nil {
		t.Fatal(err)
	}
	out.SortDedup()
	want := relation.NaiveJoin(rels, order).Renamed("out")
	if !out.Equal(want) {
		t.Fatalf("emitted tuples mismatch: %d vs %d", out.Len(), want.Len())
	}
}

func TestEmptyInput(t *testing.T) {
	r1 := relation.New("R1", "a", "b")
	r2 := relation.FromTuples("R2", []string{"b", "c"}, [][]Value{{1, 2}})
	st, err := JoinRelations([]*relation.Relation{r1, r2}, []string{"a", "b", "c"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != 0 {
		t.Fatalf("results=%d want 0", st.Results)
	}
}

func TestUncoveredAttributeError(t *testing.T) {
	r1 := relation.FromTuples("R1", []string{"a"}, [][]Value{{1}})
	_, err := JoinRelations([]*relation.Relation{r1}, []string{"a", "zz"}, Options{})
	if err == nil {
		t.Fatal("expected error for uncovered attribute")
	}
}

func TestBudgetEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := testutil.RandEdges(rng, "E", 2000, 40)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	_, err := JoinRelations(rels, []string{"a", "b", "c"}, Options{Budget: 10})
	if err != ErrBudget {
		t.Fatalf("err=%v want ErrBudget", err)
	}
}

func TestLevelTuplesMonotoneSemantics(t *testing.T) {
	// LevelTuples[last] must equal Results; all counters non-negative.
	rng := rand.New(rand.NewSource(9))
	q, rels := testutil.RandQueryInstance(rng, 4, 4, 40, 6)
	order := q.Attrs()
	st, err := JoinRelations(rels, order, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.LevelTuples[len(order)-1] != st.Results {
		t.Fatalf("last level %d != results %d", st.LevelTuples[len(order)-1], st.Results)
	}
	if st.Total() < 0 || st.TotalWithResults() != st.Total()+st.Results {
		t.Fatal("stats accounting broken")
	}
}

func TestCachedJoinMatchesPlain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, rels := testutil.RandQueryInstance(rng, 4, 4, 25, 5)
		order := q.Attrs()
		tries := BuildTries(rels, order)
		plain, err := Join(tries, order, Options{})
		if err != nil {
			return false
		}
		cj := NewCachedJoin(tries, order, 1<<20)
		cached, err := cj.Run(Options{})
		if err != nil {
			return false
		}
		return plain.Results == cached.Results
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCachedJoinZeroBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := testutil.RandEdges(rng, "E", 400, 25)
	q := hypergraph.Q2()
	rels := q.BindGraph(edges)
	order := q.Attrs()
	tries := BuildTries(rels, order)
	plain, _ := Join(tries, order, Options{})
	cj := NewCachedJoin(tries, order, 0)
	st, err := cj.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != plain.Results {
		t.Fatalf("uncached run wrong: %d vs %d", st.Results, plain.Results)
	}
	if cj.Hits != 0 {
		t.Fatalf("budget 0 must never hit, got %d", cj.Hits)
	}
}

func TestCachedJoinGetsHits(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	edges := testutil.RandEdges(rng, "E", 600, 20)
	q := hypergraph.Q4() // 5-cycle + chord: repeated sub-bindings
	rels := q.BindGraph(edges)
	order := q.Attrs()
	tries := BuildTries(rels, order)
	cj := NewCachedJoin(tries, order, 1<<22)
	if _, err := cj.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if cj.Hits == 0 {
		t.Fatal("expected cache hits on a cyclic query with a dense graph")
	}
}

func TestExtendStepwise(t *testing.T) {
	r1 := relation.FromTuples("R1", []string{"a", "b"}, [][]Value{{1, 2}, {1, 3}, {2, 4}})
	r2 := relation.FromTuples("R2", []string{"b", "c"}, [][]Value{{2, 5}, {3, 5}, {4, 6}})
	order := []string{"a", "b", "c"}
	tries := BuildTries([]*relation.Relation{r1, r2}, order)
	ext, err := NewExtender(tries, order)
	if err != nil {
		t.Fatal(err)
	}
	as, _ := ext.Extend([]Value{0, 0, 0}, 0)
	if !reflect.DeepEqual(as, []Value{1, 2}) {
		t.Fatalf("a candidates=%v", as)
	}
	bs, _ := ext.Extend([]Value{1, 0, 0}, 1)
	if !reflect.DeepEqual(bs, []Value{2, 3}) {
		t.Fatalf("b|a=1 =%v", bs)
	}
	cs, _ := ext.Extend([]Value{1, 2, 0}, 2)
	if !reflect.DeepEqual(cs, []Value{5}) {
		t.Fatalf("c|a=1,b=2 =%v", cs)
	}
	// Binding absent from R1.
	if got, _ := ext.Extend([]Value{9, 0, 0}, 1); len(got) != 0 {
		t.Fatalf("b|a=9 should be empty, got %v", got)
	}
}

// Mixed-arity property: Leapfrog must match the oracle when atoms have
// arity 1–3 (the paper's running example mixes arities).
func TestLeapfrogMixedArityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, rels := testutil.RandMixedQueryInstance(rng, 4, 4, 25, 5)
		order := q.Attrs()
		st, err := JoinRelations(rels, order, Options{})
		if err != nil {
			return false
		}
		want := relation.NaiveJoin(rels, order)
		return int(st.Results) == want.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
