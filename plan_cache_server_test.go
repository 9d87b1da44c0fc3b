package adj

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adj/internal/engine"
)

// openServerGraph opens a session on srv with edges registered as "edges".
func openServerGraph(t *testing.T, srv *Server, opts Options, edges *Relation) *Session {
	t.Helper()
	s, err := srv.OpenShared(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	return s
}

func prepareQ1(t *testing.T, s *Session) *PreparedQuery {
	t.Helper()
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

// execCount runs pq count-only and returns its count and the planning
// seconds the execution charged.
func execCount(t *testing.T, pq *PreparedQuery) (int64, float64) {
	t.Helper()
	res, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatal(err)
	}
	return res.Count(), res.Report().Optimization
}

func wantPlanStats(t *testing.T, srv *Server, want PlanCacheStats) {
	t.Helper()
	if got := srv.Stats().Plans; got != want {
		t.Fatalf("plan cache stats %+v, want %+v", got, want)
	}
}

// Two sessions of one Server over the same content share one plan: the
// second session's Prepare adopts the first's and neither it nor the first
// execution pays for planning.
func TestPlanCacheSharedAcrossServerSessions(t *testing.T) {
	edges := randomEdges(t, rand.New(rand.NewSource(7)), 400, 40)
	srv := NewServer(ServerOptions{Admission: AdmissionConfig{MaxConcurrent: 2}})
	defer srv.Close()
	opts := Options{Workers: 3, Samples: 80, Seed: 2}

	pqA := prepareQ1(t, openServerGraph(t, srv, opts, edges))
	if pqA.PlanSeconds() <= 0 {
		t.Fatal("the first session's Prepare reported no planning time")
	}
	wantPlanStats(t, srv, PlanCacheStats{Misses: 1, Entries: 1})
	countA, _ := execCount(t, pqA)

	pqB := prepareQ1(t, openServerGraph(t, srv, opts, edges))
	if s := pqB.PlanSeconds(); s != 0 {
		t.Fatalf("the second session's Prepare planned again (%.6fs)", s)
	}
	if pqB.Explain() != pqA.Explain() {
		t.Fatalf("sessions over one content explain different plans:\n%s\nvs\n%s", pqA.Explain(), pqB.Explain())
	}
	countB, opt := execCount(t, pqB)
	if opt != 0 {
		t.Fatalf("the second session's first exec charged %.6fs optimization", opt)
	}
	if countB != countA {
		t.Fatalf("counts differ across sessions: %d vs %d", countB, countA)
	}
	if want := oracleJoin(CatalogQuery("Q1"), edges).Len(); countA != int64(want) {
		t.Fatalf("count %d, oracle %d", countA, want)
	}
	wantPlanStats(t, srv, PlanCacheStats{Hits: 1, Misses: 1, Entries: 1})
}

// A prepared query that is refreshed back to content it has planned before
// adopts that plan: A → B → A replans once, for B.
func TestPlanCacheRevisitedContent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomEdges(t, rng, 400, 40)
	b := a.Clone()
	for i := 0; i < 200; i++ {
		b.Append(Value(rng.Intn(40)), Value(rng.Intn(40)))
	}
	b = b.SortDedup()
	q := CatalogQuery("Q1")
	wantA, wantB := int64(oracleJoin(q, a).Len()), int64(oracleJoin(q, b).Len())
	if wantA == wantB {
		t.Fatal("premise: A and B must have different answers")
	}

	s := openGraph(t, Options{Workers: 3, Samples: 80, Seed: 2}, a)
	pq := prepareQ1(t, s)
	for i, step := range []struct {
		content *Relation
		want    int64
		replans bool
	}{{a, wantA, false}, {b, wantB, true}, {a, wantA, false}, {b, wantB, false}} {
		if err := s.Register("edges", step.content); err != nil {
			t.Fatal(err)
		}
		n, opt := execCount(t, pq)
		if n != step.want {
			t.Fatalf("exec %d: count %d, want %d", i, n, step.want)
		}
		if replanned := opt > 0; replanned != step.replans {
			t.Fatalf("exec %d: charged %.6fs optimization, want a replan: %v", i, opt, step.replans)
		}
	}
}

// The key holds every planning option Options.toConfig passes: a session
// differing from a planned one in any of them plans for itself, and one
// equal in all of them does not.
func TestPlanCacheKeyHoldsPlanningOptions(t *testing.T) {
	edges := randomEdges(t, rand.New(rand.NewSource(13)), 300, 30)
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	base := Options{Workers: 3, Samples: 80, Seed: 2}
	prepareQ1(t, openServerGraph(t, srv, base, edges))

	variants := map[string]func(o *Options){
		"Workers":         func(o *Options) { o.Workers++ },
		"Samples":         func(o *Options) { o.Samples++ },
		"Seed":            func(o *Options) { o.Seed++ },
		"Budget":          func(o *Options) { o.Budget = 1 << 40 },
		"MemoryPerServer": func(o *Options) { o.MemoryPerServer = 1 << 40 },
	}
	for name, vary := range variants {
		opts := base
		vary(&opts)
		before := srv.Stats().Plans
		if s := prepareQ1(t, openServerGraph(t, srv, opts, edges)).PlanSeconds(); s <= 0 {
			t.Fatalf("changing %s adopted another options' plan", name)
		}
		if got := srv.Stats().Plans; got.Misses != before.Misses+1 || got.Entries != before.Entries+1 {
			t.Fatalf("changing %s: plan cache %+v after %+v, want one more miss and entry", name, got, before)
		}
	}
	if s := prepareQ1(t, openServerGraph(t, srv, base, edges)).PlanSeconds(); s != 0 {
		t.Fatalf("equal options planned again (%.6fs)", s)
	}
}

// With the trie store disabled a plan's key holds registration epochs, not
// content: two sessions that each registered once share epoch 1 over
// different graphs. No plan may pass between them.
func TestPlanCacheNeverSharesEpochKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	srv := NewServer(ServerOptions{TrieStoreBytes: -1})
	defer srv.Close()
	opts := Options{Workers: 3, Samples: 80, Seed: 2}
	q := CatalogQuery("Q1")
	for i, edges := range []*Relation{randomEdges(t, rng, 400, 40), randomEdges(t, rng, 200, 20)} {
		pq := prepareQ1(t, openServerGraph(t, srv, opts, edges))
		if pq.PlanSeconds() <= 0 {
			t.Fatalf("session %d adopted a plan keyed by another session's epoch", i)
		}
		n, _ := execCount(t, pq)
		if want := int64(oracleJoin(q, edges).Len()); n != want {
			t.Fatalf("session %d: count %d, oracle %d", i, n, want)
		}
	}
	wantPlanStats(t, srv, PlanCacheStats{})
}

// A replan cancelled mid-sampling caches nothing, so the next exec over
// that content plans in full.
func TestPlanCacheCancelledReplanInsertsNothing(t *testing.T) {
	tiny := NewRelation("E", "src", "dst")
	for _, e := range [][2]Value{{1, 2}, {2, 3}, {1, 3}} {
		tiny.Append(e[0], e[1])
	}
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	// Enough samples that planning the big graph takes a few hundred
	// milliseconds, while planning three edges stays quick.
	s := openServerGraph(t, srv, Options{Workers: 4, Samples: 200_000, Seed: 5}, tiny)
	pq := prepareQ1(t, s)
	wantPlanStats(t, srv, PlanCacheStats{Misses: 1, Entries: 1})

	if err := s.Register("edges", GenerateGraph("LJ", 0.1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := pq.Exec(ctx, CountOnly()); !errors.Is(err, context.Canceled) {
		t.Fatalf("exec cancelled mid-replan: want context.Canceled, got %v", err)
	}
	// One more lookup missed and nothing was inserted.
	wantPlanStats(t, srv, PlanCacheStats{Misses: 2, Entries: 1})

	if _, opt := execCount(t, pq); opt <= 0 {
		t.Fatal("the exec after a cancelled replan adopted a plan")
	}
	wantPlanStats(t, srv, PlanCacheStats{Misses: 3, Entries: 2})
}

// Sessions of one Server that refresh through the same contents side by
// side share plans, and with them each plan's cube counts: every
// materialised result must still be its content's oracle rows. Run under
// -race in CI.
func TestPlanCacheConcurrentSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	q := CatalogQuery("Q1")
	var graphs, want []*Relation
	for i := 0; i < 3; i++ {
		g := randomEdges(t, rng, 300+100*i, 40)
		graphs = append(graphs, g)
		want = append(want, oracleJoin(q, g))
	}
	const clients, rounds = 3, 6
	srv := NewServer(ServerOptions{Admission: AdmissionConfig{MaxConcurrent: clients}})
	defer srv.Close()
	opts := Options{Workers: 3, Samples: 80, Seed: 2}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		s := openServerGraph(t, srv, opts, graphs[c])
		pq := prepareQ1(t, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := (c + i) % len(graphs)
				if err := s.Register("edges", graphs[v]); err != nil {
					t.Error(err)
					return
				}
				res, err := pq.Exec(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if !sameRows(res.Rows(), want[v]) {
					t.Errorf("client %d round %d: rows differ from graph %d's oracle", c, i, v)
				}
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats().Plans; st.Entries != len(graphs) || st.Misses < uint64(len(graphs)) {
		t.Fatalf("plan cache %+v, want one entry and at least one miss per graph", st)
	}
}

// The cache holds planCacheEntries plans; past that the least recently
// used one goes, whether it was last inserted or last looked up.
func TestPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newPlanCache()
	for k := uint64(0); k < planCacheEntries; k++ {
		c.put(k, &engine.PreparedPlan{})
	}
	if _, ok := c.get(0); !ok {
		t.Fatal("a plan below the bound was evicted")
	}
	c.put(planCacheEntries, &engine.PreparedPlan{})
	if _, ok := c.get(1); ok {
		t.Fatal("the least recently used plan survived the bound")
	}
	for _, k := range []uint64{0, 2, planCacheEntries} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("plan %d was evicted in place of the least recently used", k)
		}
	}
	if st := c.stats(); st.Entries != planCacheEntries {
		t.Fatalf("%d entries, want the bound %d", st.Entries, planCacheEntries)
	}
}
