package leapfrog

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
	"adj/internal/trie"
)

// rowLog is a Sink recording every result row in delivery order.
type rowLog struct {
	prefix []Value
	rows   [][]Value
}

func (l *rowLog) BeginRun(prefix []Value) { l.prefix = slices.Clone(prefix) }

func (l *rowLog) AppendRun(vals []Value) {
	for _, v := range vals {
		l.rows = append(l.rows, append(slices.Clone(l.prefix), v))
	}
}

// refJoin is the joiner's contract written as the obvious recursion over
// Extender.Extend (a separate intersection path the joiner shares no loop
// with): depth-first in ascending value order, one work unit per binding, a
// leaf taking at most Budget-work+1 values and failing once work exceeds
// Budget, one run per leaf with at least one value.
func refJoin(tries []*trie.Trie, order []string, opt Options) (Stats, error) {
	ext, err := NewExtender(tries, order)
	if err != nil {
		return Stats{}, err
	}
	n := len(order)
	st := Stats{LevelTuples: make([]int64, n)}
	binding := make([]Value, n)
	var work int64
	var rec func(d int) error
	rec = func(d int) error {
		vals, _ := ext.Extend(binding, d)
		if d == n-1 {
			take := int64(len(vals))
			if opt.Budget > 0 && take > opt.Budget-work+1 {
				take = opt.Budget - work + 1
			}
			if opt.Sink != nil && take > 0 {
				opt.Sink.BeginRun(binding[:d])
				deliver(opt.Sink, &st, vals[:take])
			}
			st.LevelTuples[d] += take
			st.Results += take
			work += take
			if opt.Budget > 0 && work > opt.Budget {
				return ErrBudget
			}
			return nil
		}
		for _, v := range vals {
			binding[d] = v
			st.LevelTuples[d]++
			work++
			if opt.Budget > 0 && work > opt.Budget {
				return ErrBudget
			}
			if err := rec(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return st, rec(0)
}

// checkAgainstReference runs Join counting and emitting under opt and
// compares every Stats field, the error and the emitted rows in order with
// refJoin's.
func checkAgainstReference(tries []*trie.Trie, order []string, opt Options) error {
	var wantRows rowLog
	refOpt := opt
	refOpt.Sink = &wantRows
	want, wantErr := refJoin(tries, order, refOpt)

	var gotRows rowLog
	emitOpt := opt
	emitOpt.Sink = &gotRows
	got, gotErr := Join(tries, order, emitOpt)
	if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("emitting: stats %+v err %v, reference %+v err %v", got, gotErr, want, wantErr)
	}
	if !reflect.DeepEqual(gotRows.rows, wantRows.rows) {
		return fmt.Errorf("emitting: %d rows, reference %d (or another order)", len(gotRows.rows), len(wantRows.rows))
	}
	want.EmittedRuns, want.EmittedValues = 0, 0
	got, gotErr = Join(tries, order, opt)
	if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("counting: stats %+v err %v, reference %+v err %v", got, gotErr, want, wantErr)
	}
	return nil
}

// permutations returns every ordering of attrs.
func permutations(attrs []string) [][]string {
	if len(attrs) <= 1 {
		return [][]string{slices.Clone(attrs)}
	}
	var out [][]string
	for i := range attrs {
		rest := append(slices.Clone(attrs[:i]), attrs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{attrs[i]}, p...))
		}
	}
	return out
}

// boundaryBudgets lists the budgets around every point where a run over
// total work units changes behaviour: the first few, and the three around
// the total.
func boundaryBudgets(total int64) []int64 {
	out := []int64{0, 1, 2, 3, 5, 8}
	for _, b := range []int64{total / 2, total - 1, total, total + 1} {
		if b > 8 {
			out = append(out, b)
		}
	}
	return out
}

// The catalog's cyclic shapes under every attribute order — leaf rings of
// one (Q11's pendant edge last), two (the kernel) and three (the clique) —
// with Budget at each boundary: LevelTuples, Results,
// EmittedRuns, EmittedValues, the error and the sink's rows in order equal
// the reference's, and the unbudgeted rows are NaiveJoin's.
func TestJoinMatchesReferenceEveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edges := testutil.RandEdges(rng, "E", 70, 9)
	for _, q := range []hypergraph.Query{
		hypergraph.Q1(), hypergraph.Q2(), hypergraph.Q4(), hypergraph.Q5(), hypergraph.Q10(), hypergraph.Q11(),
	} {
		rels := q.BindGraph(edges)
		oracle := relation.NaiveJoin(rels, q.Attrs())
		if oracle.Len() == 0 {
			t.Fatalf("%s: no results on the test graph, the case tests nothing", q.Name)
		}
		for _, order := range permutations(q.Attrs()) {
			tries := BuildTries(rels, order)
			out := relation.New("out", order...)
			full, err := Join(tries, order, Options{Sink: relation.NewColumnWriter(out)})
			if err != nil {
				t.Fatal(err)
			}
			if got := out.ProjectMulti(q.Attrs()...).Sort(); !got.Equal(oracle.Renamed(got.Name)) {
				t.Fatalf("%s %v: %d rows, oracle has %d (sorted rows differ)", q.Name, order, got.Len(), oracle.Len())
			}
			for _, budget := range boundaryBudgets(full.TotalWithResults()) {
				if err := checkAgainstReference(tries, order, Options{Budget: budget}); err != nil {
					t.Fatalf("%s %v budget=%d: %v", q.Name, order, budget, err)
				}
			}
		}
	}
}

// Mixed arities 1–3 put unary relations at the leaf (a candidate list that
// is the trie's root) and rings of every size there; every order of each
// random instance, unbudgeted and at a mid-run budget.
func TestJoinMatchesReferenceMixedArity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, rels := testutil.RandMixedQueryInstance(rng, 4, 4, 25, 5)
		for _, order := range permutations(q.Attrs()) {
			tries := BuildTries(rels, order)
			full, err := Join(tries, order, Options{})
			if err != nil {
				return false
			}
			for _, opt := range []Options{{}, {Budget: 1 + full.TotalWithResults()/2}} {
				if err := checkAgainstReference(tries, order, opt); err != nil {
					t.Logf("seed %d order %v opt %+v: %v", seed, order, opt, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The leaf shapes the bitmap kernel tells apart, each under a fixed order and
// on lists long enough to cross bitmap words: a list held across the
// second-to-last depth (the triangle), across two depths (a four-cycle with
// one chord missing), a unary relation at the leaf, two lists that both hang
// off the second-to-last depth (none to mark) and two that both hang off the
// first (either would do). Budget sweeps every value from 1 past the run's
// total, so it trips inside a leaf, on its last value and between leaves.
// Stats, error and rows in order equal the reference's.
func TestJoinLeafShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rel := func(name string, tuples int, domain int64, attrs ...string) *relation.Relation {
		return testutil.RandRelation(rng, name, attrs, tuples, domain).SortDedup()
	}
	for _, c := range []struct {
		name   string
		order  []string
		rels   []*relation.Relation
		stable int
	}{
		{"triangle", []string{"a", "b", "c"}, []*relation.Relation{
			rel("R", 300, 90, "a", "b"), rel("S", 300, 90, "b", "c"), rel("T", 300, 90, "a", "c")}, 1},
		{"held-across-two-depths", []string{"a", "b", "c", "d"}, []*relation.Relation{
			rel("R", 120, 40, "a", "d"), rel("S", 120, 40, "c", "d"), rel("T", 60, 40, "a", "b"), rel("V", 60, 40, "b", "c")}, 0},
		{"unary-at-leaf", []string{"a", "b"}, []*relation.Relation{
			rel("R", 400, 120, "a", "b"), rel("U", 70, 120, "b")}, 1},
		{"both-off-second-to-last", []string{"a", "b", "c"}, []*relation.Relation{
			rel("R", 400, 12, "a", "b", "c"), rel("S", 100, 12, "b", "c")}, -1},
		{"both-off-first", []string{"a", "b", "c"}, []*relation.Relation{
			rel("R", 300, 70, "a", "c"), rel("S", 300, 70, "a", "c"), rel("T", 100, 70, "a", "b")}, 0},
	} {
		tries := BuildTries(c.rels, c.order)
		j := &joiner{}
		if err := j.init(tries, c.order); err != nil {
			t.Fatal(err)
		}
		if j.stable != c.stable {
			t.Fatalf("%s: stable leaf iterator %d, want %d", c.name, j.stable, c.stable)
		}
		full, err := Join(tries, c.order, Options{})
		if err != nil || full.Results == 0 {
			t.Fatalf("%s: %d results, err %v: the case tests nothing", c.name, full.Results, err)
		}
		for budget := int64(0); budget <= full.TotalWithResults()+1; budget++ {
			if err := checkAgainstReference(tries, c.order, Options{Budget: budget}); err != nil {
				t.Fatalf("%s budget=%d: %v", c.name, budget, err)
			}
		}
	}
}

// A joiner back in the pool keeps nothing of the join it ran: with the pooled
// joiner held, two collections free the join's tries (their finalizers run),
// and the same joiner then joins other tries, of another shape, to the
// reference's rows — a bit left in its bitmap would be a wrong answer.
func TestPooledJoinerPinsNoTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q := hypergraph.Q1()
	order := []string{"a", "b", "c"}
	var j *joiner
	var freed *atomic.Int32 // tries of the last join its finalizers have seen
	// The race detector makes the pool drop some Puts, and a Get may land on
	// another P's empty shard: join until the pool hands a used joiner back.
	for attempt := 0; j == nil && attempt < 200; attempt++ {
		func() {
			tries := BuildTries(q.BindGraph(testutil.RandEdges(rng, "E", 400, 40)), order)
			if _, err := Join(tries, order, Options{Sink: &rowLog{}}); err != nil {
				t.Fatal(err)
			}
			n := new(atomic.Int32)
			for _, tr := range tries {
				runtime.SetFinalizer(tr, func(*trie.Trie) { n.Add(1) })
			}
			freed = n
		}()
		if got := joinerPool.Get().(*joiner); cap(got.iters) > 0 {
			j = got
		}
	}
	if j == nil {
		t.Skip("the pool never handed back a used joiner")
	}
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the join's 3 tries freed with its joiner pooled: the joiner pins the rest", freed.Load())
		}
		runtime.GC()
		runtime.GC()
	}

	rels := []*relation.Relation{
		testutil.RandRelation(rng, "R", []string{"a", "b"}, 500, 60).SortDedup(),
		testutil.RandRelation(rng, "U", []string{"b"}, 40, 60).SortDedup(),
	}
	order = []string{"a", "b"}
	tries := BuildTries(rels, order)
	var want, got rowLog
	wantSt, err := refJoin(tries, order, Options{Sink: &want})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.init(tries, order); err != nil {
		t.Fatal(err)
	}
	gotSt, err := j.run(Options{Sink: &got})
	if err != nil || !reflect.DeepEqual(gotSt, wantSt) || !reflect.DeepEqual(got.rows, want.rows) {
		t.Fatalf("second join on the pooled joiner: stats %+v err %v, %d rows; reference %+v, %d rows",
			gotSt, err, len(got.rows), wantSt, len(want.rows))
	}
	j.release()
	joinerPool.Put(j)
}
