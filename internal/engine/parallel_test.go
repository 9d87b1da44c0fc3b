package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/testutil"
)

// The parallel default (one goroutine per worker) must produce exactly the
// sequential simulation's results — counts and materialized tuples — across
// engines and queries. (cps=1: every run has one cube per server.)
func TestParallelSequentialEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edges := testutil.RandEdges(rng, "E", 700, 35)
	queries := []hypergraph.Query{hypergraph.Q1(), hypergraph.Q2()}
	for _, q := range queries {
		for _, name := range []string{"ADJ", "HCubeJ"} {
			t.Run(fmt.Sprintf("%s/%s/cps=1", name, q.Name), func(t *testing.T) {
				rels := q.BindGraph(edges)
				seqCfg := smallCfg(3)
				seqCfg.Sequential = true
				seqCfg.CollectOutput = true
				parCfg := seqCfg
				parCfg.Sequential = false
				seq, err := Run(name, q, rels, seqCfg)
				if err != nil {
					t.Fatal(err)
				}
				par, err := Run(name, q, rels, parCfg)
				if err != nil {
					t.Fatal(err)
				}
				if seq.Results != par.Results {
					t.Fatalf("results: sequential=%d parallel=%d", seq.Results, par.Results)
				}
				if seq.TuplesShuffled != par.TuplesShuffled {
					t.Fatalf("tuples shuffled: sequential=%d parallel=%d",
						seq.TuplesShuffled, par.TuplesShuffled)
				}
				a := seq.Output.Clone().SortDedup()
				b := par.Output.Clone().SortDedup()
				if !a.Equal(b) {
					t.Fatal("materialized outputs differ between modes")
				}
			})
		}
	}
}

// Budget failures must still surface deterministically when the workers
// run in parallel.
func TestParallelBudgetFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	edges := testutil.RandEdges(rng, "E", 2000, 40)
	q := hypergraph.Q2()
	rels := q.BindGraph(edges)
	cfg := smallCfg(2)
	cfg.Budget = 50
	rep, err := Run("HCubeJ", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatalf("tiny budget should fail, got %d results", rep.Results)
	}
}
