package leapfrog

import (
	"errors"
	"math/rand"
	"testing"

	"adj/internal/relation"
	"adj/internal/testutil"
)

// The count-only paths (no sink) of the joiner's leaf and Extender.DrainLeaf
// must report exactly the counts of the emitting paths under limit/budget
// truncation — at every boundary, not just in the unbudgeted steady state.
// Drift here would make budget failures (and the paper's frame-top bars)
// depend on whether output was collected.
func TestCountEmitAgreementAtEveryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 8; iter++ {
		q, rels := testutil.RandQueryInstance(rng, 3, 3, 25, 6)
		order := q.Attrs()
		tries := BuildTries(rels, order)
		full, err := Join(tries, order, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Every budget up to just past the total work hits a different
		// truncation boundary; cap the sweep for big instances but always
		// include the boundaries around the total.
		maxB := full.TotalWithResults() + 2
		budgets := []int64{}
		for b := int64(1); b <= maxB && b <= 80; b++ {
			budgets = append(budgets, b)
		}
		for _, b := range []int64{maxB - 2, maxB - 1, maxB} {
			if b > 80 {
				budgets = append(budgets, b)
			}
		}
		runs := []struct {
			name string
			run  func(Options) (Stats, error)
		}{
			{"plain", func(o Options) (Stats, error) { return Join(tries, order, o) }},
			{"cached-off", func(o Options) (Stats, error) { return NewCachedJoin(tries, order, 0).Run(o) }},
			{"cached-on", func(o Options) (Stats, error) { return NewCachedJoin(tries, order, 1<<20).Run(o) }},
		}
		for _, r := range runs {
			for _, b := range budgets {
				countSt, countErr := r.run(Options{Budget: b})
				out := relation.New("out", order...)
				sinkSt, sinkErr := r.run(Options{Budget: b, Sink: relation.NewColumnWriter(out)})
				if !errors.Is(countErr, sinkErr) && !errors.Is(sinkErr, countErr) {
					t.Fatalf("iter=%d %s budget=%d: errors diverge: count=%v sink=%v",
						iter, r.name, b, countErr, sinkErr)
				}
				if countSt.Results != sinkSt.Results {
					t.Fatalf("iter=%d %s budget=%d: results diverge: count=%d sink=%d",
						iter, r.name, b, countSt.Results, sinkSt.Results)
				}
				for d := range countSt.LevelTuples {
					if countSt.LevelTuples[d] != sinkSt.LevelTuples[d] {
						t.Fatalf("iter=%d %s budget=%d: level %d tuples diverge: count=%d sink=%d",
							iter, r.name, b, d, countSt.LevelTuples[d], sinkSt.LevelTuples[d])
					}
				}
				if sinkSt.EmittedValues != int64(out.Len()) {
					t.Fatalf("iter=%d %s budget=%d: EmittedValues=%d but %d tuples materialized",
						iter, r.name, b, sinkSt.EmittedValues, out.Len())
				}
				// Counting-only runs must not report emissions.
				if countSt.EmittedRuns != 0 || countSt.EmittedValues != 0 {
					t.Fatalf("iter=%d %s budget=%d: counting run reported emissions (%d runs)",
						iter, r.name, b, countSt.EmittedRuns)
				}
			}
		}
	}
}

// DrainLeaf's count-only and emitting forms must agree at every explicit
// limit, including 0, one past the intersection size, and everything in
// between — and the emitted prefix must match the counted values.
func TestDrainLeafCountEmitAgreementAtEveryLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		k := 1 + rng.Intn(4)
		var rels []*relation.Relation
		for i := 0; i < k; i++ {
			r := relation.New("R"+string(rune('0'+i)), "x", "y")
			for j := 0; j < 60; j++ {
				r.Append(rng.Int63n(6), rng.Int63n(30))
			}
			rels = append(rels, r)
		}
		order := []string{"x", "y"}
		tries := BuildTries(rels, order)
		ext, err := NewExtender(tries, order)
		if err != nil {
			t.Fatal(err)
		}
		binding := make([]Value, 2)
		firsts, _ := ext.Extend(binding, 0)
		for _, x := range firsts {
			binding[0] = x
			want, _ := ext.Extend(binding, 1)
			for lim := int64(0); lim <= int64(len(want))+2; lim++ {
				cntOnly, _ := ext.DrainLeaf(binding, 1, lim, nil)
				got, cntEmit := drainLeafVals(ext, binding, lim)
				if cntOnly != cntEmit {
					t.Fatalf("iter=%d k=%d x=%d lim=%d: count-only=%d emitting=%d",
						iter, k, x, lim, cntOnly, cntEmit)
				}
				if int64(len(got)) != cntEmit {
					t.Fatalf("iter=%d k=%d x=%d lim=%d: emitted %d values, counted %d",
						iter, k, x, lim, len(got), cntEmit)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("iter=%d k=%d x=%d lim=%d: value %d: got %d want %d",
							iter, k, x, lim, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// emitAllocCeiling pins the emit path's allocations per listing run. The
// batched sink allocates O(columns × log results) slices (amortized column
// growth) plus a handful of fixed objects; a regression to per-value
// allocation would scale with the result count (tens of thousands here)
// and blow straight through this.
const emitAllocCeiling = 256

// Listing through the batched columnar sink on the emit-bound workload it
// targets — the wedge R(a,b) ⋈ S(b,c), whose output dwarfs the input and
// whose leaf intersections are whole adjacency lists handed over as
// zero-copy runs — must engage the run counters and stay under the
// allocation ceiling.
func TestEmitSinkAllocCeiling(t *testing.T) {
	edges := testutil.RandEdges(rand.New(rand.NewSource(4)), "E", 4000, 200)
	r := edges.Renamed("R")
	r.Attrs = []string{"a", "b"}
	s := edges.Renamed("S")
	s.Attrs = []string{"b", "c"}
	order := []string{"a", "b", "c"}
	tries := BuildTries([]*relation.Relation{r, s}, order)
	list := func() (*relation.Relation, Stats) {
		out := relation.New("out", order...)
		st, err := Join(tries, order, Options{Sink: relation.NewColumnWriter(out)})
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	out, st := list()
	if st.Results < 10*emitAllocCeiling {
		t.Fatalf("only %d results: too few for the ceiling to mean anything", st.Results)
	}
	if int64(out.Len()) != st.Results || st.EmittedRuns == 0 || st.EmittedValues != st.Results {
		t.Fatalf("batched emit did not engage: %d results, %d rows, %d runs, %d values",
			st.Results, out.Len(), st.EmittedRuns, st.EmittedValues)
	}
	allocs := testing.AllocsPerRun(5, func() { list() })
	t.Logf("%d results, %d runs, %.0f allocs per listing", st.Results, st.EmittedRuns, allocs)
	if allocs > emitAllocCeiling {
		t.Fatalf("emit sink allocates %.0f per listing of %d results, ceiling %d: batched path regressed toward per-value allocation",
			allocs, st.Results, emitAllocCeiling)
	}
}
