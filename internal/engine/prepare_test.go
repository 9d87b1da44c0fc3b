package engine

import (
	"context"
	"strings"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// coldGraph is one graph of the benchmark's cold-adj shape (LJ@0.05).
func coldGraph(seed int64) *relation.Relation { return powerLawGraph(0.05, seed) }

// TestCoOptimizeDeterministic pins the plan-determinism contract: within a
// process, ADJ's plan is a function of (query, relations, seed). Bags of
// equal cost are common on BindGraph databases (every atom is the same edge
// list); before the co-optimizer visited candidates in bag-ID order those
// ties broke by map iteration order, and repeated prepares of one graph
// returned two traversals.
func TestCoOptimizeDeterministic(t *testing.T) {
	q := hypergraph.Q5()
	cfg := Config{NumServers: 4, Seed: 1, Ctx: context.Background()}
	for seed := int64(1); seed <= 8; seed++ {
		rels := q.BindGraph(coldGraph(seed))
		var first string
		for i := 0; i < 50; i++ {
			pp, err := Prepare("ADJ", q, rels, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The est={…} suffix prints modeled seconds; the plan is what
			// precedes it.
			label, _, _ := strings.Cut(pp.Program.Label, " est={")
			if i == 0 {
				first = label
			} else if label != first {
				t.Fatalf("graph %d, prepare %d chose a different plan:\n%s\n%s", seed, i, first, label)
			}
		}
	}
}

// TestPairwiseOrderPinned pins SparkSQL's greedy pairwise order on a graph
// whose source and target columns hold different numbers of distinct
// values (on a uniform random graph they tie and the order is the schema's).
// The order is a function of relation sizes and per-attribute distinct
// counts only, so however binaryJoinOrder counts distinct values — a sort
// and compact, the groups of an index — these labels may not move. Recorded
// from the sort-and-compact implementation.
func TestPairwiseOrderPinned(t *testing.T) {
	graph := coldGraph(1)
	for i, tc := range []struct {
		q    hypergraph.Query
		want string
	}{
		{hypergraph.Q1(), "pairwise: R1 ⋈ R2 ⋈ R3"},
		{hypergraph.Q2(), "pairwise: R1 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R5 ⋈ R6"},
		{hypergraph.Q3(), "pairwise: R1 ⋈ R5 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R6 ⋈ R7 ⋈ R8 ⋈ R9 ⋈ R10"},
		{hypergraph.Q4(), "pairwise: R1 ⋈ R5 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R6"},
		{hypergraph.Q5(), "pairwise: R1 ⋈ R5 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R6 ⋈ R7"},
		{hypergraph.Q6(), "pairwise: R1 ⋈ R5 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R6 ⋈ R7 ⋈ R8"},
	} {
		pp, err := Prepare("SparkSQL", tc.q, tc.q.BindGraph(graph), smallCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		if pp.Program.Label != tc.want {
			t.Errorf("Q%d: plan %q, want %q", i+1, pp.Program.Label, tc.want)
		}
	}
}

// BenchmarkPrepareADJ times one ADJ planning pass on the cold-adj
// workload's shape (Q5 over an LJ@0.05 graph): sampling index, estimates,
// GHD and plan search.
func BenchmarkPrepareADJ(b *testing.B) {
	q := hypergraph.Q5()
	rels := q.BindGraph(coldGraph(1))
	cfg := Config{NumServers: 4, Seed: 1, Ctx: context.Background()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare("ADJ", q, rels, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
