package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
)

// GYO ear decomposition must classify the canonical shapes: acyclic
// queries fully reduce, cliques stay whole, and a path attached to a
// triangle splits into exactly that core and tail.
func TestEarDecompose(t *testing.T) {
	cases := []struct {
		query    string
		wantCore []int
	}{
		{"P :- R1(a,b) ⋈ R2(b,c) ⋈ R3(c,d)", nil},
		{"Star :- R1(a,b) ⋈ R2(a,c) ⋈ R3(a,d)", nil},
		{"Tri :- R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c)", []int{0, 1, 2}},
		{"TriPath :- R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c) ⋈ R4(c,d) ⋈ R5(d,e)", []int{0, 1, 2}},
	}
	for _, tc := range cases {
		q, err := hypergraph.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		core, ears := earDecompose(q)
		if fmt.Sprint(core) != fmt.Sprint(tc.wantCore) {
			t.Fatalf("%s: core=%v want %v (ears=%v)", q.Name, core, tc.wantCore, ears)
		}
		if len(core)+len(ears) != len(q.Atoms) {
			t.Fatalf("%s: core=%v ears=%v do not partition %d atoms", q.Name, core, ears, len(q.Atoms))
		}
	}
}

// The hybrid engine must agree byte-for-byte with every pure engine on
// random connected queries — same counts, same sorted materialized tuples —
// under both sequential and parallel scheduling. This is the correctness
// contract of strategy routing: whatever route the cost model picks, the
// answer is the answer. Two fixed acyclic inputs always take Hybrid's
// acyclic route: a two-atom path and a three-atom star.
func TestHybridMatchesPureEnginesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type instance struct {
		q    hypergraph.Query
		rels []*relation.Relation
	}
	var cases []instance
	for iter := 0; iter < 6; iter++ {
		q, rels := testutil.RandQueryInstance(rng, 5, 5, 150, 40)
		cases = append(cases, instance{q, rels})
	}
	path := hypergraph.Database{
		"R": relation.FromTuples("R", []string{"x", "y"}, [][]relation.Value{{1, 2}, {3, 2}}),
		"S": relation.FromTuples("S", []string{"x", "y"}, [][]relation.Value{{2, 7}, {2, 8}}),
	}
	star := hypergraph.Database{}
	for _, name := range []string{"R1", "R2", "R3"} {
		star[name] = testutil.RandRelation(rng, name, []string{"x", "y"}, 60, 12).SortDedup()
	}
	for _, fixed := range []struct {
		query string
		db    hypergraph.Database
	}{
		{"Qp :- R(a,b) ⋈ S(b,c)", path},
		{"Star :- R1(a,b) ⋈ R2(a,c) ⋈ R3(a,d)", star},
	} {
		q, err := hypergraph.ParseQuery(fixed.query)
		if err != nil {
			t.Fatal(err)
		}
		rels, err := q.Bind(fixed.db)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{q, rels})
	}
	for iter, in := range cases {
		q, rels := in.q, in.rels
		want := relation.NaiveJoin(rels, q.Attrs())
		for _, sequential := range []bool{true, false} {
			cfg := smallCfg(3)
			cfg.Sequential = sequential
			cfg.CollectOutput = true
			hyb, err := Run("Hybrid", q, rels, cfg)
			if err != nil {
				t.Fatalf("iter=%d seq=%v hybrid: %v", iter, sequential, err)
			}
			if hyb.Results != int64(want.Len()) {
				t.Fatalf("iter=%d seq=%v %s: hybrid results=%d, oracle %d (plan %q)",
					iter, sequential, q.Name, hyb.Results, want.Len(), hyb.Plan)
			}
			// Engines emit under their own attribute orders; canonicalize to
			// the query's order and sort (multiset-preserving) so the
			// comparison is byte-identical tuples, duplicates included.
			hybOut := hyb.Output.ProjectMulti(q.Attrs()...).Sort()
			for _, name := range EngineNames() {
				pure, err := Engines()[name](q, rels, cfg)
				if err != nil {
					t.Fatalf("iter=%d seq=%v %s: %v", iter, sequential, name, err)
				}
				if pure.Results != hyb.Results {
					t.Fatalf("iter=%d seq=%v %s: results=%d hybrid=%d (hybrid plan %q)",
						iter, sequential, name, pure.Results, hyb.Results, hyb.Plan)
				}
				pureOut := pure.Output.ProjectMulti(q.Attrs()...).Sort()
				if !hybOut.Equal(pureOut) {
					t.Fatalf("iter=%d seq=%v %s: materialized outputs differ (hybrid plan %q)",
						iter, sequential, name, hyb.Plan)
				}
			}
		}
	}
}

// hybridWorkload builds the path-attached-triangle instance where the
// split pays: a large random graph core, a small path relation selective
// on the attachment attribute, and a large far path relation that a pure
// HCube shuffle would have to replicate.
func hybridWorkload(scale int) (hypergraph.Query, []*relation.Relation) {
	rng := rand.New(rand.NewSource(11))
	tri := testutil.RandEdges(rng, "E", 10*scale, int64(scale/2))
	q := hypergraph.Query{Name: "Qh", Atoms: []hypergraph.Atom{
		{Name: "R1", Attrs: []string{"a", "b"}},
		{Name: "R2", Attrs: []string{"b", "c"}},
		{Name: "R3", Attrs: []string{"a", "c"}},
		{Name: "P1", Attrs: []string{"c", "d"}},
		{Name: "P2", Attrs: []string{"d", "e"}},
	}}
	p1 := relation.New("P1", "c", "d")
	p2 := relation.New("P2", "d", "e")
	for i := 0; i < scale; i++ {
		p1.Append(relation.Value(rng.Intn(40)), relation.Value(10000+rng.Int63n(int64(50*scale))))
	}
	for i := 0; i < 40*scale; i++ {
		p2.Append(relation.Value(10000+rng.Int63n(int64(50*scale))), relation.Value(rng.Int63n(8000)))
	}
	// Set semantics: duplicate input tuples would make trie-based and
	// hash-join-based engines disagree on output multiplicity.
	p1.SortDedup()
	p2.SortDedup()
	db := hypergraph.Database{"R1": tri, "R2": tri, "R3": tri, "P1": p1, "P2": p2}
	rels, err := q.Bind(db)
	if err != nil {
		panic(err)
	}
	return q, rels
}

// On the selective path-attached triangle the router must actually choose
// the split (semijoin-reduced core + ear hash joins), produce the same
// answer as the pure engines, and beat both pure strategies on the
// deterministic cost axes — shuffle volume and modeled communication
// seconds. (Wall-clock totals are not asserted: under the suite's parallel
// load they would be flaky.)
func TestHybridRoutesSplitAndWins(t *testing.T) {
	q, rels := hybridWorkload(1000)
	cfg := Config{NumServers: 4, Samples: 300, Seed: 7, Ctx: context.Background()}

	pp, err := Prepare("Hybrid", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pp.Program.Label, "core=[") {
		t.Fatalf("router did not pick the split: %s", pp.Program.Label)
	}
	if !strings.Contains(pp.Program.Tree(), "Semijoin") {
		t.Fatalf("split plan lost its pre-reductions:\n%s", pp.Program.Tree())
	}

	hyb, err := Run("Hybrid", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Failed {
		t.Fatalf("hybrid failed: %s", hyb.FailReason)
	}
	for _, name := range []string{"SparkSQL", "HCubeJ"} {
		pure, err := Engines()[name](q, rels, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pure.Results != hyb.Results {
			t.Fatalf("%s disagrees: %d != %d", name, pure.Results, hyb.Results)
		}
		if hyb.TuplesShuffled >= pure.TuplesShuffled {
			t.Fatalf("hybrid shuffled %d tuples, %s only %d", hyb.TuplesShuffled, name, pure.TuplesShuffled)
		}
		if hyb.Communication >= pure.Communication {
			t.Fatalf("hybrid modeled comm %.4fs did not beat %s (%.4fs)", hyb.Communication, name, pure.Communication)
		}
	}
}
