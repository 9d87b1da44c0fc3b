package adj

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// drain reads a result's rows through NextRun into a fresh relation, in run
// order.
func drain(res *Results) *Relation {
	res.Reset()
	out := NewRelation("out", res.Attrs()...)
	for {
		prefix, vals, ok := res.NextRun()
		if !ok {
			return out
		}
		for _, v := range vals {
			out.AppendTuple(append(append([]Value(nil), prefix...), v))
		}
	}
}

// A prepared query's remembered per-cube counts live and die with its plan.
// On a warm resident session every cube engine × Q1/Q2/Q5 returns the oracle's
// rows on the first materialised execution (nothing remembered), returns the
// very same rows in the same order on the second (sized by the first's
// counts), and after the graph is re-registered with other content — a
// replan, so a new plan with nothing remembered — returns the new content's
// rows, not rows shaped by the old counts; then the new plan remembers the new
// total. NextRun yields what Rows holds each time.
func TestWarmRowsFollowRegisteredContent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	first := randomEdges(t, rng, 160, 16)
	second := randomEdges(t, rng, 220, 16)
	for _, name := range []string{"ADJ", "HCubeJ", "HCubeJ+Cache", "Hybrid"} {
		for _, qn := range []string{"Q1", "Q2", "Q5"} {
			q := CatalogQuery(qn)
			s := openGraph(t, Options{Workers: 4, Samples: 60, Seed: 1}, first)
			pq, err := s.PrepareGraph(name, q, "edges")
			if err != nil {
				t.Fatal(err)
			}
			exec := func(step string, want *Relation) *Relation {
				res, err := pq.Exec(context.Background())
				if err != nil {
					t.Fatalf("%s/%s %s: %v", name, qn, step, err)
				}
				if !sameRows(res.Rows(), want) || res.Count() != int64(want.Len()) {
					t.Fatalf("%s/%s %s: %d rows, oracle has %d (or other rows)", name, qn, step, res.Count(), want.Len())
				}
				if !drain(res).Equal(res.Rows()) {
					t.Fatalf("%s/%s %s: NextRun's rows differ from Rows", name, qn, step)
				}
				return res.Rows()
			}
			want := oracleJoin(q, first)
			cold := exec("first content, first exec", want)
			plan := pq.plan
			if warm := exec("first content, second exec", want); !warm.Equal(cold) {
				t.Fatalf("%s/%s: the second execution's rows are in another order than the first's", name, qn)
			}
			if err := s.Register("edges", second); err != nil {
				t.Fatal(err)
			}
			want = oracleJoin(q, second)
			if want.Len() == cold.Len() {
				t.Fatalf("%s: both graphs have %d results, the case tests nothing", qn, want.Len())
			}
			cold = exec("second content, first exec", want)
			if pq.plan == plan {
				t.Fatalf("%s/%s: changed content kept the plan, and the counts it remembers", name, qn)
			}
			if warm := exec("second content, second exec", want); !warm.Equal(cold) {
				t.Fatalf("%s/%s: the second execution's rows are in another order than the first's", name, qn)
			}
			s.Close()
		}
	}
}

// A warm materialised Exec writes its result once: with the previous
// execution's counts the output columns are allocated at their final size and
// every cube appends in place, so Exec plus a full NextRun drain allocates the
// result's own bytes and the fixed per-exec overhead — at most 1.25 × rows ×
// arity × 8 + 64 KB, at either graph size (1.13× and 1.02× the result, measured).
// Per-cube columns grown from empty and then folded allocated 4.95× the result
// at the smaller size.
func TestWarmMaterialisedExecAllocCeiling(t *testing.T) {
	q := CatalogQuery("Q1")
	for _, size := range []struct{ edges, vertices int }{{12_000, 500}, {50_000, 1_000}} {
		s := openGraph(t, Options{Workers: 4, Samples: 60, Seed: 1}, randomEdges(t, rand.New(rand.NewSource(3)), size.edges, size.vertices))
		pq, err := s.PrepareGraph("ADJ", q, "edges")
		if err != nil {
			t.Fatal(err)
		}
		var rows int64
		exec := func() {
			res, err := pq.Exec(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rows = 0
			for {
				_, vals, ok := res.NextRun()
				if !ok {
					break
				}
				rows += int64(len(vals))
			}
			if rows != res.Count() || rows == 0 {
				t.Fatalf("%d edges: NextRun yielded %d rows of %d", size.edges, rows, res.Count())
			}
		}
		exec() // cold: shuffles, builds, publishes, counts
		exec() // warm: pools fill
		// No collection while measuring, as in
		// TestWarmExecAllocIndependentOfGraphSize.
		restore := debug.SetGCPercent(-1)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			exec()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(restore)
		s.Close()
		perExec := float64(after.TotalAlloc-before.TotalAlloc) / runs
		result := float64(rows) * 3 * 8
		t.Logf("%d edges: a warm materialised Exec + drain allocates %.0f bytes for a %.0f-byte result (%.2f×)",
			size.edges, perExec, result, perExec/result)
		if perExec > 1.25*result+64<<10 {
			t.Fatalf("%d edges: warm Exec + drain allocated %.0f bytes for %d rows (%.0f bytes): more than 1.25× the result + 64 KB",
				size.edges, perExec, rows, result)
		}
	}
}
