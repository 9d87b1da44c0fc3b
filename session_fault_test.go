package adj

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"adj/internal/cluster"
	"adj/internal/faultinject"
)

// withFaultTransport swaps a session's resident cluster for one whose
// transport is wrapped in the fault injector (the session owns its
// clusters, so this is the seam fault tests use). These tests open their
// sessions with the default pool of one cluster; the swap checks it out of
// the pool and returns the replacement through it. The returned
// transport's rules can be re-armed or healed between executions with
// SetRules.
func withFaultTransport(t *testing.T, s *Session, seed int64, rules ...faultinject.Rule) *faultinject.Transport {
	t.Helper()
	if len(s.clusters) != 1 {
		t.Fatalf("withFaultTransport wants a single-cluster session, got pool of %d", len(s.clusters))
	}
	tr := faultinject.Wrap(cluster.NewLocalTransport(s.opts.Workers), seed, rules...)
	old := <-s.pool
	old.Close()
	s.clusters[0] = cluster.New(cluster.Config{N: s.opts.Workers, Transport: tr})
	s.pool <- s.clusters[0]
	return tr
}

// TestSessionSurvivesTransportFault is the fail-safe regression: an Exec
// that dies on a typed transport fault must leave the session fully usable
// — the very next Exec, with the fault healed, returns exactly the
// oracle's count.
func TestSessionSurvivesTransportFault(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := randomEdges(t, rng, 400, 50)
	q := CatalogQuery("Q1")
	opts := Options{Workers: 3, Samples: 60, Seed: 1}

	want := int64(oracleJoin(q, edges).Len())

	for _, kind := range []string{"drop", "corrupt", "faildial"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var rule faultinject.Rule
			switch kind {
			case "drop":
				rule = faultinject.Rule{From: faultinject.Any, To: faultinject.Any, Drop: 1}
			case "corrupt":
				rule = faultinject.Rule{From: faultinject.Any, To: faultinject.Any, Corrupt: 1}
			case "faildial":
				rule = faultinject.Rule{From: faultinject.Any, To: faultinject.Any, FailDial: 1}
			}
			tr := withFaultTransport(t, s, 5, rule)
			if err := s.Register("edges", edges); err != nil {
				t.Fatal(err)
			}
			pq, err := s.PrepareGraph("ADJ", q, "edges")
			if err != nil {
				t.Fatal(err)
			}

			if _, err := pq.Exec(context.Background(), CountOnly()); err == nil {
				t.Fatal("faulted exec should fail")
			} else if !errors.Is(err, ErrTransport) {
				t.Fatalf("faulted exec's error is untyped: %v", err)
			} else if !IsTransient(err) {
				t.Fatalf("transport fault should classify transient: %v", err)
			}

			tr.SetRules() // heal
			res, err := pq.Exec(context.Background(), CountOnly())
			if err != nil {
				t.Fatalf("exec after failure: %v", err)
			}
			if res.Count() != want {
				t.Fatalf("post-failure exec count = %d, oracle = %d", res.Count(), want)
			}
			if res.Err() != nil {
				t.Fatalf("clean exec reports Err: %v", res.Err())
			}
		})
	}
}

// TestSessionSurvivesWorkerPanicWarmStore verifies the other half of the
// fail-safe contract: a worker panic mid-execution neither wedges the
// session nor invalidates the session trie store — the execution after the
// crash still runs warm (zero shuffle-side trie builds) and returns the
// same count as the pre-crash execution.
func TestSessionSurvivesWorkerPanicWarmStore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edges := randomEdges(t, rng, 400, 50)
	q := CatalogQuery("Q1")

	s, err := Open(Options{Workers: 3, Samples: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err := s.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		t.Fatal(err)
	}

	cold, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report().TrieBuilds == 0 {
		t.Fatal("cold exec built no tries (test premise broken)")
	}

	s.clusters[0].SetPanicHook(func(phase string, workerID int) {
		if workerID == 1 {
			panic("injected crash")
		}
	})
	_, err = pq.Exec(context.Background(), CountOnly())
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("want ErrWorkerPanic, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("panics must not classify transient (Retry must not re-run them)")
	}

	s.clusters[0].SetPanicHook(nil)
	warm, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatalf("exec after panic: %v", err)
	}
	if warm.Count() != cold.Count() {
		t.Fatalf("post-panic count = %d, pre-panic = %d", warm.Count(), cold.Count())
	}
	rep := warm.Report()
	if rep.TrieBuilds != 0 || rep.TrieCacheHits == 0 {
		t.Fatalf("store did not survive the crash: builds=%d hits=%d",
			rep.TrieBuilds, rep.TrieCacheHits)
	}
}

// TestSessionRetryTransient verifies Options.Retry: a transient transport
// fault that fires exactly once is absorbed — the execution succeeds, its
// report is marked Retried — while the same schedule without Retry
// surfaces the error.
func TestSessionRetryTransient(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	edges := randomEdges(t, rng, 400, 50)
	q := CatalogQuery("Q1")
	base := Options{Workers: 3, Samples: 60, Seed: 1}

	want := int64(oracleJoin(q, edges).Len())
	failOnce := faultinject.Rule{From: faultinject.Any, To: faultinject.Any, Drop: 1, Times: 1}

	// Without Retry: the fault surfaces.
	s, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	withFaultTransport(t, s, 3, failOnce)
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err := s.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Exec(context.Background(), CountOnly()); !errors.Is(err, ErrTransport) {
		t.Fatalf("without Retry want ErrTransport, got %v", err)
	}
	s.Close()

	// With Retry: absorbed, marked, correct.
	retryOpts := base
	retryOpts.Retry = true
	s, err = Open(retryOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	withFaultTransport(t, s, 3, failOnce)
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err = s.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatalf("Retry did not absorb the transient fault: %v", err)
	}
	if !res.Report().Retried {
		t.Fatal("absorbed exec's report not marked Retried")
	}
	if res.Count() != want {
		t.Fatalf("retried exec count = %d, oracle = %d", res.Count(), want)
	}

	// A second execution on the same session is clean and unmarked.
	res, err = pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().Retried {
		t.Fatal("clean exec spuriously marked Retried")
	}
}

// TestSessionCoordinatorPanicContained verifies the Exec guard: a panic
// outside any worker body (here: a panic hook firing during the planning
// leftovers is simulated with a hook on every worker including sequential
// coordination) is converted to a typed error and the session's lock is
// released — Close and further calls proceed normally.
func TestSessionCoordinatorPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	edges := randomEdges(t, rng, 200, 30)
	s, err := Open(Options{Workers: 2, Samples: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}

	// Worker-side panic through the full session stack: typed, contained.
	s.clusters[0].SetPanicHook(func(string, int) { panic("boom") })
	if _, err := pq.Exec(context.Background(), CountOnly()); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("want ErrWorkerPanic, got %v", err)
	}
	s.clusters[0].SetPanicHook(nil)
	if _, err := pq.Exec(context.Background(), CountOnly()); err != nil {
		t.Fatalf("session wedged after contained panic: %v", err)
	}
}

// TestResultsErrBudgetFailure verifies the Err contract on the one
// non-error degraded case: a budget-failed run produces a Results whose
// Err is non-nil while NextRun yields nothing.
func TestResultsErrBudgetFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edges := randomEdges(t, rng, 400, 40)
	opts := Options{Workers: 2, Samples: 40, Seed: 1, Budget: 1}

	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatalf("budget failures are reported as data, not as an Exec error: %v", err)
	}
	if res.Err() == nil {
		t.Fatal("budget-failed run must surface through Results.Err")
	}
	if _, _, ok := res.NextRun(); ok {
		t.Fatal("failed run must not stream partial results")
	}
}
