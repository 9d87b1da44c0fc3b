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
