package sampling

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/leapfrog"
	"adj/internal/relation"
	"adj/internal/testutil"
)

func TestSampleSize(t *testing.T) {
	// Lemma 2: k = ceil(0.5 p^-2 ln(2/δ)).
	k := SampleSize(0.1, 0.05)
	want := int(math.Ceil(0.5 * 100 * math.Log(40)))
	if k != want {
		t.Fatalf("k=%d want %d", k, want)
	}
	if SampleSize(0, 0.5) != 1 || SampleSize(0.1, 0) != 1 {
		t.Fatal("degenerate params must give 1")
	}
}

func TestValA(t *testing.T) {
	r1 := relation.FromTuples("R1", []string{"a", "b"}, [][]relation.Value{{1, 2}, {2, 3}, {5, 1}})
	r2 := relation.FromTuples("R2", []string{"a", "c"}, [][]relation.Value{{2, 9}, {5, 9}, {7, 9}})
	r3 := relation.FromTuples("R3", []string{"b", "c"}, [][]relation.Value{{1, 1}})
	got := ValA([]*relation.Relation{r1, r2, r3}, "a")
	if !reflect.DeepEqual(got, []relation.Value{2, 5}) {
		t.Fatalf("val(a)=%v", got)
	}
	if got := ValA([]*relation.Relation{r3}, "a"); got != nil {
		t.Fatalf("val over no relations=%v", got)
	}
}

func TestEstimateExactWhenSamplingAll(t *testing.T) {
	// With enough samples the estimate converges to the truth; with the
	// sampler drawing uniformly we verify on a tiny instance where every
	// val is hit many times.
	rng := rand.New(rand.NewSource(1))
	edges := testutil.RandEdges(rng, "E", 200, 15)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	order := q.Attrs()
	st, err := leapfrog.JoinRelations(rels, order, leapfrog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := st.Results
	if truth == 0 {
		t.Skip("instance has no triangles")
	}
	est, err := EstimateCardinality(rels, order, Config{Samples: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d := ratio(est.Cardinality, float64(truth))
	if d > 1.15 {
		t.Fatalf("estimate %.1f vs truth %d: D=%.3f", est.Cardinality, truth, d)
	}
}

func TestEstimateLevelCountsMatchLeapfrog(t *testing.T) {
	// With every val(A) value sampled uniformly, level estimates approximate
	// Leapfrog's exact per-level counters.
	rng := rand.New(rand.NewSource(2))
	edges := testutil.RandEdges(rng, "E", 300, 18)
	q := hypergraph.Q4()
	rels := q.BindGraph(edges)
	order := q.Attrs()
	st, err := leapfrog.JoinRelations(rels, order, leapfrog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateCardinality(rels, order, Config{Samples: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if st.LevelTuples[i] == 0 {
			continue
		}
		d := ratio(est.LevelCounts[i], float64(st.LevelTuples[i]))
		if d > 1.3 {
			t.Fatalf("level %d: est %.1f vs exact %d (D=%.2f)", i, est.LevelCounts[i], st.LevelTuples[i], d)
		}
	}
}

func TestEstimateEmptyJoin(t *testing.T) {
	r1 := relation.FromTuples("R1", []string{"a", "b"}, [][]relation.Value{{1, 2}})
	r2 := relation.FromTuples("R2", []string{"a", "c"}, [][]relation.Value{{9, 3}})
	est, err := EstimateCardinality([]*relation.Relation{r1, r2}, []string{"a", "b", "c"}, Config{Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if est.Cardinality != 0 || est.ValA != 0 {
		t.Fatalf("empty val(A): %+v", est)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := testutil.RandEdges(rng, "E", 300, 20)
	rels := hypergraph.Q1().BindGraph(edges)
	order := []string{"a", "b", "c"}
	a, _ := EstimateCardinality(rels, order, Config{Samples: 500, Seed: 42})
	b, _ := EstimateCardinality(rels, order, Config{Samples: 500, Seed: 42})
	if a.Cardinality != b.Cardinality {
		t.Fatal("same seed must give same estimate")
	}
	c, _ := EstimateCardinality(rels, order, Config{Samples: 500, Seed: 43})
	_ = c // different seed may differ; just ensure it runs
}

func TestAccumAdd(t *testing.T) {
	a := accum{LevelSums: []int64{1, 2}, WorkOps: 5, Samples: 1}
	var b accum
	b.add(a)
	b.add(a)
	if b.LevelSums[1] != 4 || b.WorkOps != 10 || b.Samples != 2 || b.Truncated {
		t.Fatalf("accum=%+v", b)
	}
	b.add(accum{LevelSums: []int64{0, 0}, Truncated: true})
	b.add(a)
	if !b.Truncated {
		t.Fatalf("a truncated shard left the sum untruncated: %+v", b)
	}
}

func TestPerSampleBudgetTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	edges := testutil.RandEdges(rng, "E", 2000, 40)
	rels := hypergraph.Q1().BindGraph(edges)
	order := []string{"a", "b", "c"}
	full, err := EstimateCardinality(rels, order, Config{Samples: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := EstimateCardinality(rels, order, Config{Samples: 200, Seed: 1, PerSampleBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Cardinality > full.Cardinality {
		t.Fatalf("budgeted estimate %.1f should not exceed full %.1f", cut.Cardinality, full.Cardinality)
	}
}

func ratio(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 1
	}
	if a == 0 || b == 0 {
		return math.Inf(1)
	}
	return math.Max(a, b) / math.Min(a, b)
}
