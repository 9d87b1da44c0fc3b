package adj

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The session plan cache is keyed by (engine, query shape, relation
// content): warm executions route straight to the interpreter with zero
// planning seconds; re-registering changed content replans automatically
// (charged to that execution's Optimization); re-registering identical
// content stays warm.
func TestSessionPlanCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := randomEdges(t, rng, 400, 40)
	q := CatalogQuery("Q1")
	for _, name := range []string{"ADJ", "Hybrid"} {
		s, err := Open(Options{Workers: 3, Samples: 80, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register("edges", edges); err != nil {
			t.Fatal(err)
		}
		pq, err := s.PrepareGraph(name, q, "edges")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pq.PlanSeconds() <= 0 {
			t.Fatalf("%s: Prepare reported no planning time", name)
		}
		if expl := pq.Explain(); !strings.Contains(expl, "Emit") {
			t.Fatalf("%s: Explain missing operator tree:\n%s", name, expl)
		}

		// Warm hit: the cached plan executes with zero planning cost.
		res, err := pq.Exec(context.Background(), CountOnly())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := res.Count()
		if opt := res.Report().Optimization; opt != 0 {
			t.Fatalf("%s: warm execution charged %.6fs optimization", name, opt)
		}

		// Identical content re-registered: the content signature is
		// unchanged, so the key still matches and no replan happens.
		if err := s.Register("edges", edges.Clone()); err != nil {
			t.Fatal(err)
		}
		res, err = pq.Exec(context.Background(), CountOnly())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if opt := res.Report().Optimization; opt != 0 {
			t.Fatalf("%s: identical re-register caused a replan (%.6fs)", name, opt)
		}
		if res.Count() != want {
			t.Fatalf("%s: count changed on identical data: %d != %d", name, res.Count(), want)
		}

		// Changed content: the key misses, the execution replans and pays
		// for it, and the answer reflects the new data.
		bigger := edges.Clone()
		for i := 0; i < 200; i++ {
			bigger.Append(Value(rng.Intn(40)), Value(rng.Intn(40)))
		}
		if err := s.Register("edges", bigger); err != nil {
			t.Fatal(err)
		}
		res, err = pq.Exec(context.Background(), CountOnly())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if opt := res.Report().Optimization; opt <= 0 {
			t.Fatalf("%s: changed content did not replan (optimization=%.6fs)", name, opt)
		}

		// And the replanned plan is cached in turn: the next execution over
		// the same content is warm again.
		res, err = pq.Exec(context.Background(), CountOnly())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if opt := res.Report().Optimization; opt != 0 {
			t.Fatalf("%s: replanned plan not cached (%.6fs)", name, opt)
		}
		s.Close()
	}
}

// A replan is part of the exec that triggers it, so it runs under that
// exec's context: a cancel landing while the sampler is re-planning changed
// content stops it between samples instead of being ignored until planning
// finishes (with s.mu held), and the interrupted replan leaves the old plan
// and key in place — restoring the original content is a plan-cache hit.
func TestExecReplanObservesCancel(t *testing.T) {
	tiny := NewRelation("E", "src", "dst")
	for _, e := range [][2]Value{{1, 2}, {2, 3}, {1, 3}} {
		tiny.Append(e[0], e[1])
	}
	// Enough samples that planning the big graph takes seconds, while
	// planning three edges stays quick.
	s := openGraph(t, Options{Workers: 4, Samples: 500_000, Seed: 5}, tiny)
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Register("edges", GenerateGraph("LJ", 0.3)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	t0 := time.Now()
	_, err = pq.Exec(ctx, CountOnly())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("exec cancelled mid-replan: want context.Canceled, got %v", err)
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("cancelled replan returned after %v: the cancel was not observed while sampling", d)
	}

	if err := s.Register("edges", tiny); err != nil {
		t.Fatal(err)
	}
	res, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatalf("exec after a cancelled replan: %v", err)
	}
	if res.Count() != 1 {
		t.Fatalf("count=%d want 1", res.Count())
	}
	if opt := res.Report().Optimization; opt != 0 {
		t.Fatalf("the cancelled replan replaced the cached plan (next exec replanned for %.6fs)", opt)
	}
}
