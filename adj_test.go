package adj

import (
	"context"
	"strings"
	"testing"
)

// openGraph opens a session with edges registered as "edges".
func openGraph(t *testing.T, opts Options, edges *Relation) *Session {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstartFlow(t *testing.T) {
	s := openGraph(t, Options{Workers: 4, Samples: 200, Seed: 1}, GenerateGraph("WB", 0.05))
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Exec(context.Background(), CountOnly())
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Report(); rep.Failed {
		t.Fatalf("failed: %s", rep.FailReason)
	}
	if res.Count() <= 0 {
		t.Fatal("expected triangles in WB")
	}
}

func TestRunAdHocQuery(t *testing.T) {
	q, err := ParseQuery("Qt :- R(a,b) ⋈ S(b,c) ⋈ T(a,c)")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, rows [][]Value) *Relation {
		r := NewRelation(name, "x", "y")
		for _, row := range rows {
			r.Append(row...)
		}
		return r
	}
	e := [][]Value{{1, 2}, {2, 3}, {1, 3}}
	s, err := Open(Options{Workers: 2, Samples: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RegisterDatabase(Database{"R": mk("R", e), "S": mk("S", e), "T": mk("T", e)}); err != nil {
		t.Fatal(err)
	}
	pq, err := s.Prepare("ADJ", q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 1 {
		t.Fatalf("triangle count=%d want 1", res.Count())
	}
}

// Every engine reachable through the public API answers with exactly the
// brute-force oracle's rows.
func TestAllEnginesViaPublicAPI(t *testing.T) {
	edges := GenerateGraph("WB", 0.03)
	q := CatalogQuery("Q1")
	want := oracleJoin(q, edges)
	s := openGraph(t, Options{Workers: 3, Samples: 100, Seed: 2}, edges)
	for _, name := range AllEngineNames() {
		pq, err := s.PrepareGraph(name, q, "edges")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep := res.Report(); rep.Failed {
			t.Fatalf("%s failed: %s", name, rep.FailReason)
		}
		if res.Count() != int64(want.Len()) || !sameRows(res.Rows(), want) {
			t.Fatalf("%s: %d results, oracle found %d (or rows differ)", name, res.Count(), want.Len())
		}
	}
}

func TestPrepareUnknownEngine(t *testing.T) {
	q := CatalogQuery("Q1")
	s := openGraph(t, Options{}, NewRelation("E", "s", "d"))
	if _, err := s.Prepare("nope", q); err == nil {
		t.Fatal("expected error")
	}
	if _, err := s.PrepareGraph("nope", q, "edges"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPrepareMissingRelation(t *testing.T) {
	s := openGraph(t, Options{}, NewRelation("E", "s", "d"))
	if _, err := s.Prepare("ADJ", CatalogQuery("Q1")); err == nil {
		t.Fatal("expected bind error")
	}
	if _, err := s.PrepareGraph("ADJ", CatalogQuery("Q1"), "missing"); err == nil {
		t.Fatal("expected bind error")
	}
}

func TestExplain(t *testing.T) {
	s := openGraph(t, Options{Workers: 4, Samples: 100}, GenerateGraph("WB", 0.03))
	pq, err := s.PrepareGraph("ADJ", CatalogQuery("Q5"), "edges")
	if err != nil {
		t.Fatal(err)
	}
	if plan := pq.Explain(); !strings.Contains(plan, "ord=") || !strings.Contains(plan, pq.Plan()) {
		t.Fatalf("plan missing order or label %q: %s", pq.Plan(), plan)
	}
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 6 || names[0] != "WB" || names[5] != "OK" {
		t.Fatalf("names=%v", names)
	}
	for _, n := range names {
		if GenerateGraph(n, 0.02).Len() == 0 {
			t.Fatalf("%s empty", n)
		}
	}
}

// TestCountAcyclic counts an α-acyclic two-atom path through the public
// Session API: every engine, Hybrid's acyclic route included, must agree.
func TestCountAcyclic(t *testing.T) {
	q, err := ParseQuery("Qp :- R(a,b) ⋈ S(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelation("R", "x", "y")
	r.Append(1, 2)
	r.Append(3, 2)
	s := NewRelation("S", "x", "y")
	s.Append(2, 7)
	s.Append(2, 8)
	sess, err := Open(Options{Workers: 2, Samples: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if err := sess.RegisterDatabase(Database{"R": r, "S": s}); err != nil {
		t.Fatal(err)
	}
	for _, name := range AllEngineNames() {
		pq, err := sess.Prepare(name, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep := res.Report(); rep.Failed {
			t.Fatalf("%s failed: %s", name, rep.FailReason)
		}
		if res.Count() != 4 {
			t.Fatalf("%s: count=%d want 4", name, res.Count())
		}
	}
}
