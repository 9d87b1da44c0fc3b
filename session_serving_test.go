package adj

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adj/internal/costmodel"
	"adj/internal/testutil"
)

// TestSessionConcurrentExecEquivalence is the serving tier's correctness
// suite: N goroutines hammer mixed prepared queries across all six
// engines on one session's cluster pool, and every concurrent result must
// match its sequential reference byte-for-byte. Run under -race in CI;
// the goroutine count must settle after Close.
func TestSessionConcurrentExecEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edges := randomEdges(t, rng, 400, 50)
	before := runtime.NumGoroutine()

	s, err := Open(Options{Workers: 3, Samples: 60, Seed: 1, Admission: AdmissionConfig{MaxConcurrent: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}

	queries := []string{"Q1", "Q2"}
	type prepared struct {
		pq   *PreparedQuery
		want []byte // sequential reference, sorted encoding
		n    int64
	}
	var preps []prepared
	for _, eng := range AllEngineNames() {
		for _, qn := range queries {
			pq, err := s.PrepareGraph(eng, CatalogQuery(qn), "edges")
			if err != nil {
				t.Fatalf("prepare %s/%s: %v", eng, qn, err)
			}
			res, err := pq.Exec(context.Background())
			if err != nil {
				t.Fatalf("sequential %s/%s: %v", eng, qn, err)
			}
			preps = append(preps, prepared{pq, sortedBytes(t, res.Rows()), res.Count()})
		}
	}

	const goroutines, execsEach = 6, 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < execsEach; i++ {
				p := preps[(g+i*goroutines)%len(preps)]
				res, err := p.pq.Exec(context.Background())
				if err != nil {
					errc <- err
					return
				}
				if res.Count() != p.n {
					t.Errorf("%s: concurrent count %d, sequential %d",
						p.pq.Engine(), res.Count(), p.n)
					return
				}
				if got := sortedBytes(t, res.Rows()); !bytes.Equal(got, p.want) {
					t.Errorf("%s: concurrent output differs from sequential reference",
						p.pq.Engine())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent exec: %v", err)
	}

	st := s.AdmissionStats()
	if st.Admitted != int64(len(preps)+goroutines*execsEach) {
		t.Fatalf("Admitted = %d, want %d", st.Admitted, len(preps)+goroutines*execsEach)
	}
	if st.InFlight != 0 || st.Depth != 0 {
		t.Fatalf("controller not drained: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitForGoroutines(t, before)
}

// TestSessionOverloadShedding drives the graceful-degradation contract: a
// bulk flood through a tight admission config must be shed with typed
// errors while the interactive trickle completes, and the pool must stay
// fully healthy afterward (warm store intact, goroutines settled).
func TestSessionOverloadShedding(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	edges := randomEdges(t, rng, 400, 50)
	before := runtime.NumGoroutine()

	s, err := Open(Options{
		Workers: 3, Samples: 60, Seed: 1,
		Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueue: 16, ShedQueue: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the store so post-overload health is observable (TrieBuilds==0).
	ref, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatal(err)
	}

	// Bulk flood: everything beyond the in-flight slot hits the ShedQueue
	// watermark. Interactive trickle: must all complete.
	const bulks, interactives = 12, 4
	var bulkOK, bulkShed, untyped int64
	var wg sync.WaitGroup
	for i := 0; i < bulks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pq.Exec(context.Background(), CountOnly(), WithClass(Bulk))
			switch {
			case err == nil:
				atomic.AddInt64(&bulkOK, 1)
			case errors.Is(err, ErrOverloaded):
				var oe *OverloadError
				if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
					atomic.AddInt64(&untyped, 1)
					return
				}
				atomic.AddInt64(&bulkShed, 1)
			default:
				atomic.AddInt64(&untyped, 1)
			}
		}()
	}
	interErr := make(chan error, interactives)
	for i := 0; i < interactives; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := pq.Exec(ctx, CountOnly())
			if err != nil {
				interErr <- err
				return
			}
			if res.Count() != ref.Count() {
				t.Errorf("interactive count %d under load, want %d", res.Count(), ref.Count())
			}
		}()
	}
	wg.Wait()
	close(interErr)
	for err := range interErr {
		t.Fatalf("interactive request failed under bulk flood: %v", err)
	}
	if untyped > 0 {
		t.Fatalf("%d rejections were not typed OverloadErrors", untyped)
	}
	if bulkShed == 0 {
		t.Fatalf("no bulk requests shed (ok=%d) — watermark never tripped", bulkOK)
	}
	st := s.AdmissionStats()
	if st.Shed != bulkShed {
		t.Fatalf("Stats.Shed = %d, observed %d", st.Shed, bulkShed)
	}

	// Fail-safe: the pool is fully healthy after the storm — the next
	// execution still runs warm out of the untouched store.
	res, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatalf("exec after overload: %v", err)
	}
	if res.Count() != ref.Count() {
		t.Fatalf("post-overload count = %d, want %d", res.Count(), ref.Count())
	}
	if rep := res.Report(); rep.TrieBuilds != 0 {
		t.Fatalf("store lost its warmth across the overload: TrieBuilds = %d", rep.TrieBuilds)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, before)
}

// TestSessionDeadlineMidQueue is the regression for deadline-aware queue
// waits: a request whose context expires while it waits behind a slow
// execution must abort with context.DeadlineExceeded (not hang, not
// return untyped), and the pool must come back healthy.
func TestSessionDeadlineMidQueue(t *testing.T) {
	edges := GenerateGraph("LJ", 0.3)
	s, err := Open(Options{Workers: 4, Samples: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	slow, err := s.PrepareGraph("ADJ", CatalogQuery("Q5"), "edges")
	if err != nil {
		t.Fatal(err)
	}

	hold := make(chan error, 1)
	go func() {
		_, err := slow.Exec(context.Background(), CountOnly())
		hold <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the slow exec take the slot

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = slow.Exec(ctx, CountOnly())
	if err == nil {
		t.Fatal("queued exec with tiny deadline succeeded — expected expiry" +
			" (slow exec finished too fast for the test premise)")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-queue expiry: err = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("expired request held the queue %v", waited)
	}
	if err := <-hold; err != nil {
		t.Fatalf("slot-holding exec failed: %v", err)
	}
	// The expiry left no residue: the next unbounded exec completes.
	if _, err := slow.Exec(context.Background(), CountOnly()); err != nil {
		t.Fatalf("exec after mid-queue expiry: %v", err)
	}
}

// TestSessionDeadlineMidExecution verifies the deadline threads into the
// running phases themselves — shuffle waits included: a deadline that
// fires mid-run aborts the execution with context.DeadlineExceeded,
// promptly and without leaking goroutines.
func TestSessionDeadlineMidExecution(t *testing.T) {
	edges := GenerateGraph("LJ", 0.3)
	s, err := Open(Options{Workers: 4, Samples: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q5"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := pq.Exec(ctx, CountOnly())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Log("execution finished before the deadline took effect")
		} else if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("mid-execution expiry: err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("expired execution did not return")
	}
	waitForGoroutines(t, before)
	// The borrowed cluster went back healthy.
	if _, err := pq.Exec(context.Background(), CountOnly()); err != nil {
		t.Fatalf("exec after mid-execution expiry: %v", err)
	}
}

// TestSessionCloseIdempotent: repeat Closes return nil without re-running
// teardown, and every operation on the closed session fails with the
// stable ErrSessionClosed.
func TestSessionCloseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edges := randomEdges(t, rng, 200, 30)
	s, err := Open(Options{Workers: 2, Samples: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("repeat close %d: %v", i, err)
		}
	}
	if _, err := pq.Exec(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Exec after close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Prepare("ADJ", CatalogQuery("Q1")); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Prepare after close: err = %v, want ErrSessionClosed", err)
	}
	if err := s.Register("more", edges); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Register after close: err = %v, want ErrSessionClosed", err)
	}
}

// TestSessionCloseWaitsForInFlight: Close during an execution waits for
// the borrowed cluster to come home instead of pulling it out from under
// the run.
func TestSessionCloseWaitsForInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	edges := randomEdges(t, rng, 400, 50)
	s, err := Open(Options{Workers: 3, Samples: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	execDone := make(chan error, 1)
	var execFinished atomic.Bool
	go func() {
		_, err := pq.Exec(context.Background(), CountOnly())
		execFinished.Store(true)
		execDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("close with in-flight exec: %v", err)
	}
	if !execFinished.Load() {
		t.Fatal("Close returned before the in-flight execution finished")
	}
	if err := <-execDone; err != nil && !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("in-flight exec during close: %v", err)
	}
}

// TestServerSharedStoreWarm: two sessions of one Server registering the
// same content warm each other — session B's first execution adopts the
// tries session A built (TrieBuilds == 0), and ServerStats sees both.
func TestServerSharedStoreWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	edges := randomEdges(t, rng, 400, 50)
	srv := NewServer(ServerOptions{Admission: AdmissionConfig{MaxConcurrent: 2}})
	defer srv.Close()

	opts := Options{Workers: 3, Samples: 60, Seed: 1}
	sA, err := srv.OpenShared(opts)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := srv.OpenShared(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{sA, sB} {
		if err := s.Register("edges", edges); err != nil {
			t.Fatal(err)
		}
	}
	pqA, err := sA.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	pqB, err := sB.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}

	cold, err := pqA.Exec(context.Background(), CountOnly(), WithTenant("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report().TrieBuilds == 0 {
		t.Fatal("session A's cold exec built no tries (premise broken)")
	}
	warm, err := pqB.Exec(context.Background(), CountOnly(), WithTenant("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Count() != cold.Count() {
		t.Fatalf("cross-session counts differ: %d vs %d", warm.Count(), cold.Count())
	}
	rep := warm.Report()
	if rep.TrieBuilds != 0 || rep.TrieCacheHits == 0 {
		t.Fatalf("session B's first exec was not warmed by A: builds=%d hits=%d",
			rep.TrieBuilds, rep.TrieCacheHits)
	}

	st := srv.Stats()
	if st.Sessions != 2 {
		t.Fatalf("Sessions = %d, want 2", st.Sessions)
	}
	if st.Admission.Admitted != 2 {
		t.Fatalf("Admitted = %d, want 2", st.Admission.Admitted)
	}
	if st.Store.Blocks == 0 {
		t.Fatal("shared store snapshot shows no resident blocks")
	}
	if _, ok := st.Admission.Tenants["alice"]; !ok {
		t.Fatalf("tenant accounting missing alice: %+v", st.Admission.Tenants)
	}

	// Server.Close closes the sessions it still owns.
	if err := sA.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Sessions; got != 1 {
		t.Fatalf("Sessions after sA.Close = %d, want 1", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pqB.Exec(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("exec on server-closed session: err = %v, want ErrSessionClosed", err)
	}
	if _, err := srv.OpenShared(opts); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("OpenShared on closed server: err = %v, want ErrSessionClosed", err)
	}
}

// TestSessionExecReportsAdmission: the report carries the serving-tier
// observability fields.
func TestSessionExecReportsAdmission(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
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
	res, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report().AdmissionClass; got != "interactive" {
		t.Fatalf("default AdmissionClass = %q, want interactive", got)
	}
	if res.Report().QueueSeconds < 0 {
		t.Fatalf("QueueSeconds = %v", res.Report().QueueSeconds)
	}
	res, err = pq.Exec(context.Background(), CountOnly(), WithClass(Bulk))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report().AdmissionClass; got != "bulk" {
		t.Fatalf("bulk AdmissionClass = %q", got)
	}
}

// TestSessionTenantBudgetExec: a tenant that burned its byte budget is
// refused with ErrOverloaded end-to-end through Exec, while other tenants
// proceed.
func TestSessionTenantBudgetExec(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	edges := randomEdges(t, rng, 400, 50)
	s, err := Open(Options{
		Workers: 3, Samples: 60, Seed: 1,
		Admission: AdmissionConfig{
			MaxConcurrent: 1,
			TenantBytes:   1, // any shuffle at all busts the budget
			BudgetWindow:  time.Hour,
		},
	})
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
	if _, err := pq.Exec(context.Background(), CountOnly(), WithTenant("greedy")); err != nil {
		t.Fatalf("first exec within budget: %v", err)
	}
	_, err = pq.Exec(context.Background(), CountOnly(), WithTenant("greedy"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget tenant: err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "tenant bytes budget" {
		t.Fatalf("overload detail: %+v (err %v)", oe, err)
	}
	// Another tenant — and the unaccounted default — still execute.
	if _, err := pq.Exec(context.Background(), CountOnly(), WithTenant("frugal")); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	if _, err := pq.Exec(context.Background(), CountOnly()); err != nil {
		t.Fatalf("unaccounted exec refused: %v", err)
	}
}

// TestSessionTenantChargedMeasuredSeconds: a tenant is charged the
// execution's measured worker seconds, never the modeled network time of
// its exchanges. The workload is the Hybrid engine's split case (a
// triangle with a selective path attached): its semijoin pre-reductions
// are exchanges under precompute/*, so PreComputing carries modeled seconds
// the charge must leave out.
func TestSessionTenantChargedMeasuredSeconds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const scale = 1000
	tri := testutil.RandEdges(rng, "E", 10*scale, scale/2)
	p1, p2 := NewRelation("P1", "c", "d"), NewRelation("P2", "d", "e")
	for i := 0; i < scale; i++ {
		p1.Append(Value(rng.Intn(40)), Value(10000+rng.Int63n(50*scale)))
	}
	for i := 0; i < 40*scale; i++ {
		p2.Append(Value(10000+rng.Int63n(50*scale)), Value(rng.Int63n(8000)))
	}
	p1.SortDedup()
	p2.SortDedup()
	q, err := ParseQuery("Qh :- R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c) ⋈ P1(c,d) ⋈ P2(d,e)")
	if err != nil {
		t.Fatal(err)
	}
	// A frozen clock: the tenant account does not decay between the charge
	// and the read.
	now := time.Unix(1_000_000_000, 0)
	s, err := Open(Options{Workers: 4, Samples: 300, Seed: 7,
		Admission: AdmissionConfig{Clock: func() time.Time { return now }}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RegisterDatabase(Database{"R1": tri, "R2": tri, "R3": tri, "P1": p1, "P2": p2}); err != nil {
		t.Fatal(err)
	}
	pq, err := s.Prepare("Hybrid", q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Exec(context.Background(), CountOnly(), WithTenant("t"))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	var measured, modeledPre float64
	for _, e := range rep.Metrics.Entries() {
		switch {
		case strings.HasPrefix(e.Phase, "optimize"):
		case strings.HasPrefix(e.Phase, "precompute"):
			measured += e.CompSeconds()
			modeledPre += costmodel.ExchangeSeconds(e)
		default:
			measured += e.CompSeconds()
		}
	}
	if modeledPre <= 0 {
		t.Fatalf("plan has no priced precompute exchange: %s\n%s", rep.Plan, rep.Metrics)
	}
	got := s.AdmissionStats().Tenants["t"].CPUSeconds
	if math.Abs(got-measured) > 1e-12 {
		t.Fatalf("tenant charged %v s, measured compute is %v s (Computation+PreComputing %v s)",
			got, measured, rep.Computation+rep.PreComputing)
	}
}
