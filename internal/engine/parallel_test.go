package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"adj/internal/blockcache"
	"adj/internal/hypergraph"
	"adj/internal/testutil"
)

// The parallel default (goroutine workers + work-stealing cube pool) must
// produce exactly the sequential simulation's results — counts and
// materialized tuples — across engines, cluster sizes and cube fan-outs.
func TestParallelSequentialEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edges := testutil.RandEdges(rng, "E", 700, 35)
	queries := []hypergraph.Query{hypergraph.Q1(), hypergraph.Q2()}
	for _, q := range queries {
		for _, cps := range []int{1, 4} {
			for _, name := range []string{"ADJ", "HCubeJ"} {
				t.Run(fmt.Sprintf("%s/%s/cps=%d", name, q.Name, cps), func(t *testing.T) {
					rels := q.BindGraph(edges)
					seqCfg := smallCfg(3)
					seqCfg.CubesPerServer = cps
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
}

// runCubes must visit every task exactly once in both modes — with and
// without a locality signal — and stop scheduling new work after an error.
func TestRunCubes(t *testing.T) {
	affinities := map[string]func(ci int) []blockcache.Key{
		"none": nil,
		"shared": func(ci int) []blockcache.Key {
			// Cubes fall into 5 block-sharing groups of uneven size.
			return []blockcache.Key{{Rel: "R", Sig: ci % 5}, {Rel: "S", Sig: ci % 3}}
		},
	}
	for name, blocksOf := range affinities {
		for _, sequential := range []bool{true, false} {
			var visited [97]atomic.Int32
			err := runCubes(97, sequential, nil, blocksOf, nil, func(ci int) error {
				visited[ci].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for ci := range visited {
				if got := visited[ci].Load(); got != 1 {
					t.Fatalf("affinity=%s sequential=%v: cube %d visited %d times", name, sequential, ci, got)
				}
			}
		}
	}
	boom := errors.New("boom")
	var ran atomic.Int32
	err := runCubes(64, false, nil, nil, nil, func(ci int) error {
		ran.Add(1)
		if ci == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v want boom", err)
	}
	if runCubes(0, false, nil, nil, nil, func(int) error { t.Fatal("no tasks expected"); return nil }) != nil {
		t.Fatal("empty task set must succeed")
	}
	_ = ran.Load() // races between the error and other goroutines are fine; count is unasserted
}

// The locality partitioner must co-locate cubes sharing blocks, respect
// the per-queue bound, and cover every cube exactly once, deterministically.
func TestPartitionCubes(t *testing.T) {
	// 4 disjoint block groups over 16 cubes, 4 queues: a perfect
	// partitioning exists and greedy assignment must find it.
	blocksOf := func(ci int) []blockcache.Key {
		return []blockcache.Key{{Rel: "R", Sig: ci / 4}}
	}
	queues := partitionCubes(16, 4, blocksOf, nil)
	seen := make(map[int]int)
	for _, q := range queues {
		groups := make(map[int]bool)
		for _, ci := range q {
			seen[ci]++
			groups[ci/4] = true
		}
		if len(q) > 0 && len(groups) != 1 {
			t.Fatalf("queue mixes block groups: %v", q)
		}
	}
	if len(seen) != 16 {
		t.Fatalf("covered %d cubes, want 16", len(seen))
	}
	for ci, n := range seen {
		if n != 1 {
			t.Fatalf("cube %d assigned %d times", ci, n)
		}
	}
	// Skewed affinity (every cube shares one hot block): the bound must
	// cap each queue at 2× the fair share instead of piling all cubes on
	// one queue.
	hot := func(ci int) []blockcache.Key { return []blockcache.Key{{Rel: "H", Sig: 0}} }
	queues = partitionCubes(20, 4, hot, nil)
	total := 0
	for _, q := range queues {
		if len(q) > 10 {
			t.Fatalf("queue exceeds 2x fair-share bound: %d cubes", len(q))
		}
		total += len(q)
	}
	if total != 20 {
		t.Fatalf("partitioned %d cubes, want 20", total)
	}
	// Determinism: same inputs, same assignment.
	a := fmt.Sprint(partitionCubes(16, 4, blocksOf, nil))
	b := fmt.Sprint(partitionCubes(16, 4, blocksOf, nil))
	if a != b {
		t.Fatal("partitioner is not deterministic")
	}
}

// The cost-aware partitioner must balance by summed block size, not cube
// count: with one skewed hub block, its heavy cubes spread across queues
// up front instead of co-locating behind one goroutine.
func TestPartitionCubesSkewedWeights(t *testing.T) {
	// 16 cubes over 4 queues. Cubes 0..3 each carry the hub block of
	// weight 1000 (plus a private block); the remaining 12 cubes weigh 10.
	// A count-balanced partitioner would co-locate all four hub cubes on
	// one queue (they share the hot block and the count bound is 8); the
	// size-balanced bound (2×fair share = 2×(4120/4) = 2060) caps each
	// queue at two hub cubes.
	hub := blockcache.Key{Rel: "H", Sig: 0}
	blocksOf := func(ci int) []blockcache.Key {
		if ci < 4 {
			return []blockcache.Key{hub, {Rel: "P", Sig: ci}}
		}
		return []blockcache.Key{{Rel: "Q", Sig: ci}}
	}
	weightOf := func(ci int) int64 {
		if ci < 4 {
			return 1000
		}
		return 10
	}
	queues := partitionCubes(16, 4, blocksOf, weightOf)
	seen := make(map[int]int)
	maxLoad := int64(0)
	for _, q := range queues {
		var load int64
		for _, ci := range q {
			seen[ci]++
			load += weightOf(ci)
		}
		if load > maxLoad {
			maxLoad = load
		}
	}
	if len(seen) != 16 {
		t.Fatalf("covered %d cubes, want 16", len(seen))
	}
	for ci, n := range seen {
		if n != 1 {
			t.Fatalf("cube %d assigned %d times", ci, n)
		}
	}
	// Fair share is 4120/4 = 1030; the bound is 2060, so no queue may
	// carry more than two hub cubes' worth of work.
	if maxLoad > 2060 {
		t.Fatalf("skewed hub not spread: max queue load %d > 2060 bound", maxLoad)
	}
	// Zero/unsized cubes must still be placed exactly once.
	zero := partitionCubes(6, 3, nil, func(int) int64 { return 0 })
	total := 0
	for _, q := range zero {
		total += len(q)
	}
	if total != 6 {
		t.Fatalf("zero-weight partitioning placed %d cubes, want 6", total)
	}
}

// Budget failures must still surface deterministically under the parallel
// cube pool.
func TestParallelBudgetFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	edges := testutil.RandEdges(rng, "E", 2000, 40)
	q := hypergraph.Q2()
	rels := q.BindGraph(edges)
	cfg := smallCfg(2)
	cfg.Budget = 50
	cfg.CubesPerServer = 4
	rep, err := Run("HCubeJ", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatalf("tiny budget should fail, got %d results", rep.Results)
	}
}
