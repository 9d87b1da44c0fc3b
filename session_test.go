package adj

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"adj/internal/relation"
)

// hcubeEngines are the engines whose executions go through the block-trie
// registry (and therefore the session store).
var hcubeEngines = map[string]bool{"ADJ": true, "HCubeJ": true, "HCubeJ+Cache": true}

func randomEdges(t *testing.T, rng *rand.Rand, n, vertices int) *Relation {
	t.Helper()
	r := NewRelation("E", "src", "dst")
	for i := 0; i < n; i++ {
		r.Append(Value(rng.Intn(vertices)), Value(rng.Intn(vertices)))
	}
	// Set semantics: duplicate edges would make trie-based and hash-join
	// engines disagree with the oracle on output multiplicity.
	return r.SortDedup()
}

// oracleJoin answers q over a graph with the brute-force nested-loop join —
// no engine, planner or trie code involved — as sorted rows over q.Attrs().
func oracleJoin(q Query, edges *Relation) *Relation {
	return relation.NaiveJoin(q.BindGraph(edges), q.Attrs()).Sort()
}

// sameRows reports whether an execution's rows (in the engine's attribute
// order) are exactly the oracle's, as a multiset.
func sameRows(got, want *Relation) bool {
	return got != nil && got.ProjectMulti(want.Attrs...).Sort().Equal(want)
}

func sortedBytes(t *testing.T, r *Relation) []byte {
	t.Helper()
	if r == nil {
		return nil
	}
	c := r.Clone()
	c.Sort()
	return relation.Encode(c)
}

// TestSessionMatchesOracle is the randomized session-vs-oracle check: for
// random graphs, every engine must produce the brute-force join's count
// and row multiset through a PreparedQuery twice — cold and warm — and
// warm executions of the HCube engines must be served entirely from the
// session trie store.
func TestSessionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := []string{"Q1", "Q2"}
	for trial := 0; trial < 3; trial++ {
		edges := randomEdges(t, rng, 300+rng.Intn(300), 40+rng.Intn(40))
		q := CatalogQuery(queries[trial%len(queries)])
		want := oracleJoin(q, edges)

		s, err := Open(Options{Workers: 3, Samples: 60, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register("edges", edges); err != nil {
			t.Fatal(err)
		}
		for _, name := range AllEngineNames() {
			pq, err := s.PrepareGraph(name, q, "edges")
			if err != nil {
				t.Fatalf("%s prepare: %v", name, err)
			}
			for exec := 0; exec < 2; exec++ {
				res, err := pq.Exec(context.Background())
				if err != nil {
					t.Fatalf("%s exec %d: %v", name, exec, err)
				}
				rep := res.Report()
				if rep.Failed {
					t.Fatalf("%s exec %d failed: %s", name, exec, rep.FailReason)
				}
				if res.Count() != int64(want.Len()) {
					t.Fatalf("%s exec %d: count %d, oracle %d", name, exec, res.Count(), want.Len())
				}
				if !sameRows(res.Rows(), want) {
					t.Fatalf("%s exec %d: rows differ from the oracle's", name, exec)
				}
				// Streamed runs must reconstruct exactly the materialized rows.
				rebuilt := NewRelation("out", res.Attrs()...)
				res.Reset()
				row := make([]Value, len(res.Attrs()))
				for {
					prefix, vals, ok := res.NextRun()
					if !ok {
						break
					}
					copy(row, prefix)
					for _, v := range vals {
						row[len(row)-1] = v
						rebuilt.AppendTuple(row)
					}
				}
				if !rebuilt.Equal(res.Rows()) {
					t.Fatalf("%s exec %d: NextRun stream does not reconstruct Rows()", name, exec)
				}
				if exec == 1 && hcubeEngines[name] {
					if rep.TrieBuilds != 0 {
						t.Fatalf("%s warm exec: %d trie builds, want 0", name, rep.TrieBuilds)
					}
					if rep.TrieCacheHits == 0 {
						t.Fatalf("%s warm exec: no trie cache hits", name)
					}
					// The HCube shuffle itself is skipped warm; ADJ plans
					// with pre-computed bags (marked "*") still shuffle the
					// bag-materializing joins each run.
					if rep.TuplesShuffled != 0 && !strings.Contains(rep.Plan, "*") {
						t.Fatalf("%s warm exec: shuffled %d tuples, want 0", name, rep.TuplesShuffled)
					}
				}
				if exec == 0 && hcubeEngines[name] && rep.CacheBlocks > 0 && rep.TrieBuilds == 0 {
					// The first execution of the first engine must be cold;
					// later engines may legitimately share store entries
					// (identical shares and permutations), which is the
					// cross-engine reuse the content keying buys.
					t.Logf("%s cold exec served from store (cross-engine reuse)", name)
				}
			}
		}
		s.Close()
	}
}

// TestSessionCountOnly checks the count-only execution path and that
// NextRun yields nothing without materialized output.
func TestSessionCountOnly(t *testing.T) {
	edges := GenerateGraph("WB", 0.03)
	s, err := Open(Options{Workers: 3, Samples: 100, Seed: 2})
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
	if res.Count() <= 0 {
		t.Fatal("expected triangles")
	}
	if res.Rows() != nil {
		t.Fatal("CountOnly must not materialize rows")
	}
	if _, _, ok := res.NextRun(); ok {
		t.Fatal("CountOnly must not stream runs")
	}
}

// TestSessionAdHocDatabase prepares a query over individually registered
// relations and checks re-registration invalidates warm reuse.
func TestSessionAdHocDatabase(t *testing.T) {
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
		t.Fatalf("count=%d want 1", res.Count())
	}
	// Warm re-execution.
	res2, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report().TrieBuilds != 0 {
		t.Fatalf("warm exec built %d tries", res2.Report().TrieBuilds)
	}
	// Re-register R with different content: next exec must go cold for R's
	// blocks and see the new result.
	e2 := [][]Value{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 5}, {3, 5}}
	if err := s.Register("R", mk("R", e2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("S", mk("S", e2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("T", mk("T", e2)); err != nil {
		t.Fatal(err)
	}
	res3, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res3.Count() != 2 {
		t.Fatalf("after re-register count=%d want 2", res3.Count())
	}
	if res3.Report().TrieBuilds == 0 {
		t.Fatal("re-registered content must rebuild tries")
	}
}

// TestSessionEvictionRespectsBudget forces the trie store far under the
// workload's footprint: resident bytes must stay within the budget,
// evictions must occur, and execution must stay correct (falling back to
// cold shuffles when block sets are broken).
func TestSessionEvictionRespectsBudget(t *testing.T) {
	edges := GenerateGraph("WB", 0.05)
	s, err := Open(Options{Workers: 4, Samples: 100, Seed: 3, TrieStoreBytes: 2048})
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
	var want int64 = -1
	for i := 0; i < 3; i++ {
		res, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = res.Count()
		} else if res.Count() != want {
			t.Fatalf("exec %d count=%d want %d", i, res.Count(), want)
		}
	}
	st := s.TrieStoreStats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions under a %d-byte budget (resident %d bytes)", st.Budget, st.Bytes)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("store bytes %d exceed budget %d", st.Bytes, st.Budget)
	}
}

// TestSessionReuseDisabled checks TrieStoreBytes < 0 turns reuse off: the
// second execution rebuilds everything and the store stays empty.
func TestSessionReuseDisabled(t *testing.T) {
	edges := GenerateGraph("WB", 0.03)
	s, err := Open(Options{Workers: 3, Samples: 80, Seed: 4, TrieStoreBytes: -1})
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
	for i := 0; i < 2; i++ {
		res, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Report().TrieBuilds == 0 {
			t.Fatalf("exec %d: reuse disabled but no builds", i)
		}
	}
	if st := s.TrieStoreStats(); st.Blocks != 0 {
		t.Fatalf("disabled store holds %d blocks", st.Blocks)
	}
}

// TestSessionExecCancel cancels a mid-flight execution and checks it
// returns promptly with the context error and without leaking goroutines.
func TestSessionExecCancel(t *testing.T) {
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
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pq.Exec(ctx)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Log("execution finished before cancellation took effect")
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled execution did not return")
	}
	waitForGoroutines(t, before)
}

func waitForGoroutines(t *testing.T, baseline int) {
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

// A warm execution reads the store's tries and nothing else: no base
// relation is copied to the workers, so what a count-only Exec allocates
// does not grow with the registered graph. 2 k and 50 k edges, same query,
// same workers: the same bytes within 10 %.
func TestWarmExecAllocIndependentOfGraphSize(t *testing.T) {
	q := CatalogQuery("Q1")
	warmBytes := func(edges, vertices int) float64 {
		s, err := Open(Options{Workers: 4, Samples: 60, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Register("edges", randomEdges(t, rand.New(rand.NewSource(3)), edges, vertices)); err != nil {
			t.Fatal(err)
		}
		pq, err := s.PrepareGraph("ADJ", q, "edges")
		if err != nil {
			t.Fatal(err)
		}
		exec := func(warm bool) {
			res, err := pq.Exec(context.Background(), CountOnly())
			if err != nil {
				t.Fatal(err)
			}
			if rep := res.Report(); warm && (rep.TuplesShuffled != 0 || rep.TrieBuilds != 0) {
				t.Fatalf("%d edges: warm Exec shuffled %d tuples and built %d tries", edges, rep.TuplesShuffled, rep.TrieBuilds)
			}
		}
		exec(false) // cold: shuffles, builds and publishes
		exec(true)  // first warm one: pools fill
		// No collection while measuring: one would empty the pools and bill
		// their refill to whichever graph it happened to hit.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			exec(true)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := warmBytes(2_000, 700), warmBytes(50_000, 9_000)
	t.Logf("warm count-only Exec allocates %.0f bytes over 2 k edges, %.0f over 50 k", small, large)
	if large > 1.1*small || large < 0.9*small {
		t.Fatalf("warm Exec allocated %.0f bytes over 2 k edges and %.0f over 50 k: it copies something that grows with the graph", small, large)
	}
}
