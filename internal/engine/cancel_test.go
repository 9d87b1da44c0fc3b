package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"adj/internal/dataset"
	"adj/internal/hypergraph"
)

// TestCancelAllEngines cancels a mid-flight run of every engine, in both
// the sequential simulation and the default parallel mode, and checks the
// run returns promptly with the context's error and the process goroutine
// count settles back to its baseline — the no-leak guarantee of the
// cancellation plumbing (phase barriers, each cube join's start, Leapfrog
// inner loops, sampling).
func TestCancelAllEngines(t *testing.T) {
	edges := dataset.Load("LJ", 0.3)
	q := hypergraph.Get("Q5") // 5-node pattern: long enough to catch mid-run
	rels := q.BindGraph(edges)
	for _, sequential := range []bool{false, true} {
		for name, run := range Engines() {
			name, run, sequential := name, run, sequential
			mode := "parallel"
			if sequential {
				mode = "sequential"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() {
					_, err := run(q, rels, Config{
						NumServers: 4, Samples: 200, Seed: 1,
						Sequential: sequential, Ctx: ctx,
					})
					done <- err
				}()
				time.Sleep(20 * time.Millisecond)
				cancel()
				select {
				case err := <-done:
					if err == nil {
						t.Log("run finished before the cancel landed (tiny machine?)")
					} else if !errors.Is(err, context.Canceled) {
						t.Fatalf("want context.Canceled, got %v", err)
					}
				case <-time.After(60 * time.Second):
					t.Fatal("cancelled run did not return")
				}
				waitGoroutines(t, baseline)
			})
		}
	}
}

// TestPreCancelledContext: a context cancelled before the run starts must
// fail fast in every engine.
func TestPreCancelledContext(t *testing.T) {
	edges := dataset.Load("WB", 0.03)
	q := hypergraph.Get("Q1")
	rels := q.BindGraph(edges)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range Engines() {
		_, err := run(q, rels, Config{NumServers: 2, Samples: 50, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
	}
}

// TestPrepareRequiresLiveContext: planning is part of the run, so every row
// of the engine table — the sampling planners and the cheap deterministic
// ones alike — fails a context that is already done with its error, and a
// missing context is rejected rather than defaulted.
func TestPrepareRequiresLiveContext(t *testing.T) {
	edges := dataset.Load("WB", 0.03)
	q := hypergraph.Get("Q1")
	rels := q.BindGraph(edges)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range engineTable {
		if _, err := Prepare(e.name, q, rels, Config{NumServers: 2, Samples: 50, Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Prepare under a cancelled ctx: want context.Canceled, got %v", e.name, err)
		}
		if _, err := Prepare(e.name, q, rels, Config{NumServers: 2, Samples: 50}); !errors.Is(err, errNilCtx) {
			t.Fatalf("%s: Prepare without a ctx: want errNilCtx, got %v", e.name, err)
		}
		if _, err := Run(e.name, q, rels, Config{NumServers: 2, Samples: 50}); !errors.Is(err, errNilCtx) {
			t.Fatalf("%s: Run without a ctx: want errNilCtx, got %v", e.name, err)
		}
	}
}

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
