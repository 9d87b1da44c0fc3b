package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"adj/internal/cluster"
	"adj/internal/dataset"
	"adj/internal/faultinject"
	"adj/internal/hypergraph"
)

// TestChaosMatrix drives every engine, in both execution modes, through
// randomized fault injection — dropped envelopes, failed dials, corrupted
// payloads, injected delays and worker panics — and asserts the
// fault-tolerance contract on every run:
//
//   - a run that completes returns exactly the fault-free result count
//     (faults never silently change results), and
//   - a run that fails returns a clean typed error (cluster.ErrWorkerPanic,
//     cluster.ErrTransport or a context error), never an anonymous one, and
//   - either way the goroutine count settles back to baseline (no leaks)
//     within a bounded deadline (no hangs).
//
// The "none" row wraps the transport with no rule armed: the whole
// robustness chain is engaged (wrapped exchange stream, panic-recovery
// bookkeeping, retry accounting) and must cost nothing on the happy path —
// the fault-free result, zero recovered panics, zero transport retries.
func TestChaosMatrix(t *testing.T) {
	edges := dataset.Load("WB", 0.05)
	q := hypergraph.Get("Q1")
	rels := q.BindGraph(edges)
	base := Config{NumServers: 4, Samples: 100, Seed: 7, Ctx: context.Background()}

	// Fault-free reference counts, one per engine.
	want := make(map[string]int64)
	for name, run := range Engines() {
		rep, err := run(q, rels, base)
		if err != nil {
			t.Fatalf("%s fault-free reference run: %v", name, err)
		}
		want[name] = rep.Results
	}

	kinds := []struct {
		name  string
		rules []faultinject.Rule
		panic bool
	}{
		{"none", nil, false},
		{"drop", []faultinject.Rule{{From: faultinject.Any, To: faultinject.Any, Drop: 0.2}}, false},
		{"faildial", []faultinject.Rule{{From: faultinject.Any, To: faultinject.Any, FailDial: 0.3}}, false},
		{"corrupt", []faultinject.Rule{{From: faultinject.Any, To: faultinject.Any, Corrupt: 0.2}}, false},
		{"delay", []faultinject.Rule{{From: faultinject.Any, To: faultinject.Any, Delay: 0.5, MaxDelay: time.Millisecond}}, false},
		{"panic", nil, true},
	}
	// Each cell runs minSeeds randomized runs, and keeps drawing seeds (up
	// to maxSeeds) until at least one fault has actually fired — a cell
	// whose faults all missed would verify nothing.
	minSeeds, maxSeeds := int64(3), int64(25)
	if testing.Short() {
		minSeeds = 1
	}

	for _, sequential := range []bool{false, true} {
		mode := "parallel"
		if sequential {
			mode = "sequential"
		}
		for engName, run := range Engines() {
			for _, k := range kinds {
				engName, run, k, sequential := engName, run, k, sequential
				t.Run(engName+"/"+mode+"/"+k.name, func(t *testing.T) {
					quiet := !k.panic && len(k.rules) == 0
					fired := quiet
					for seed := int64(1); seed <= maxSeeds; seed++ {
						if seed > minSeeds && fired {
							break
						}
						baseline := runtime.NumGoroutine()
						// Every cell borrows an explicit cluster for the run:
						// panic injection needs its hook, the others its
						// wrapped transport.
						clusCfg := cluster.Config{N: base.NumServers, Sequential: sequential}
						var ftr *faultinject.Transport
						if !k.panic {
							ftr = faultinject.Wrap(
								cluster.NewLocalTransport(base.NumServers), seed, k.rules...)
							clusCfg.Transport = ftr
						}
						clus := cluster.New(clusCfg)
						if k.panic {
							clus.SetPanicHook(faultinject.PanicHook(seed, 0.02, ""))
						}
						cfg := base
						cfg.Cluster = clus

						var rep Report
						var err error
						done := make(chan struct{})
						go func() {
							defer close(done)
							rep, err = run(q, rels, cfg)
						}()
						select {
						case <-done:
						case <-time.After(120 * time.Second):
							t.Fatalf("seed %d: run hung under fault injection", seed)
						}

						if quiet {
							if err != nil || rep.Results != want[engName] {
								t.Fatalf("seed %d: quiescent injector changed the run: %d results (want %d), err %v",
									seed, rep.Results, want[engName], err)
							}
							if rep.PanicsRecovered != 0 || rep.TransportRetries != 0 {
								t.Fatalf("seed %d: clean run reported panics=%d retries=%d",
									seed, rep.PanicsRecovered, rep.TransportRetries)
							}
						} else if err != nil {
							typed := errors.Is(err, cluster.ErrWorkerPanic) ||
								errors.Is(err, cluster.ErrTransport) ||
								errors.Is(err, context.Canceled) ||
								errors.Is(err, context.DeadlineExceeded)
							if !typed {
								t.Fatalf("seed %d: failed run's error is untyped: %v", seed, err)
							}
						} else if rep.Results != want[engName] {
							t.Fatalf("seed %d: faulted run silently changed the result: got %d, want %d",
								seed, rep.Results, want[engName])
						}
						if ftr != nil {
							fired = fired || ftr.Injected() > 0
						} else {
							fired = fired || err != nil // a fired hook always fails the run
						}
						clus.Close()
						waitGoroutines(t, baseline)
					}
					if !fired {
						t.Fatalf("no fault fired across %d seeds — the cell verified nothing", maxSeeds)
					}
				})
			}
		}
	}
}

// TestChaosPanicErrorDetail spot-checks the diagnostic payload of a
// contained panic surfacing through a full engine run: the error carries
// the worker, the phase and the stack.
func TestChaosPanicErrorDetail(t *testing.T) {
	edges := dataset.Load("WB", 0.03)
	q := hypergraph.Get("Q1")
	rels := q.BindGraph(edges)

	clus := cluster.New(cluster.Config{N: 2})
	defer clus.Close()
	clus.SetPanicHook(func(phase string, workerID int) {
		if workerID == 1 {
			panic("chaos")
		}
	})
	_, err := Run("ADJ", q, rels, Config{Samples: 50, Seed: 1, Cluster: clus, Ctx: context.Background()})
	var wp *cluster.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("want *WorkerPanicError, got %v", err)
	}
	if wp.WorkerID != 1 || wp.Phase == "" || len(wp.Stack) == 0 {
		t.Fatalf("panic diagnostics incomplete: worker=%d phase=%q stack=%d bytes",
			wp.WorkerID, wp.Phase, len(wp.Stack))
	}
}
