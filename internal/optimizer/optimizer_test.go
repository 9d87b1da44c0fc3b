package optimizer

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adj/internal/costmodel"
	"adj/internal/dataset"
	"adj/internal/ghd"
	"adj/internal/hypergraph"
	"adj/internal/leapfrog"
	"adj/internal/relation"
	"adj/internal/sampling"
	"adj/internal/testutil"
)

func testParams(n int) costmodel.Params {
	p := costmodel.DefaultParams(n)
	return p
}

func newOpt(t *testing.T, q hypergraph.Query, rels []*relation.Relation, n int) *Optimizer {
	t.Helper()
	o, err := New(q, rels, Options{Params: testParams(n), Samples: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestSubsetSizeMatchesExactOnPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := testutil.RandEdges(rng, "E", 400, 20)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	o, err := New(q, rels, Options{Params: testParams(4), Samples: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"a", "b", "c"}
	st, err := leapfrog.JoinRelations(rels, order, leapfrog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		est := o.SubsetSize(order[:i])
		exact := float64(st.LevelTuples[i-1])
		if exact == 0 {
			continue
		}
		r := est / exact
		if r < 0.7 || r > 1.4 {
			t.Fatalf("prefix %v: est %.1f vs exact %.0f", order[:i], est, exact)
		}
	}
	if o.SubsetSize(nil) != 1 {
		t.Fatal("empty subset must have size 1")
	}
}

func TestSubsetSizeMemoizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	edges := testutil.RandEdges(rng, "E", 200, 15)
	q := hypergraph.Q1()
	o := newOpt(t, q, q.BindGraph(edges), 4)
	a := o.SubsetSize([]string{"b", "a"})
	ops := o.SampleOps
	b := o.SubsetSize([]string{"a", "b"}) // same set, different order
	if a != b {
		t.Fatal("subset size must be order-independent")
	}
	if o.SampleOps != ops {
		t.Fatal("second call must hit the memo")
	}

	// Q7's bags {a,b} and {b,c} bring the groups [a b] and [c]. The greedy
	// weighs only the first group's first pick — two one-attribute sets,
	// which cost no work — and every other attribute is forced: no set of
	// two or three attributes is estimated.
	q7 := hypergraph.Q7()
	o = newOpt(t, q7, q7.BindGraph(edges), 4)
	tr := o.Decomp.TraversalOrders()[0]
	groups := o.Decomp.NewAttrsAt(tr)
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 1 {
		t.Fatalf("Q7 traversal %v has groups %v, want two then one attribute", tr, groups)
	}
	order := o.attrOrderFor(tr)
	if o.SampleOps != 0 {
		t.Fatalf("ordering %v sampled %d ops", order, o.SampleOps)
	}
	for key := range o.tCache {
		if strings.Contains(key, "\x00") {
			t.Fatalf("ordering %v estimated the forced set %q", order, key)
		}
	}
}

// freshPass is a new planning pass with o's query, relations, GHD and
// options: an empty index and empty memos.
func freshPass(o *Optimizer) *Optimizer {
	f := *o
	f.ix = sampling.NewIndex()
	f.tCache = make(map[string]float64)
	f.bagCache = make(map[int]float64)
	f.SampleOps = 0
	return &f
}

// Every |T_S| a planning pass memoizes — sampled for S itself or read off a
// deeper run's canonical-order prefix — is exactly what a fresh optimizer's
// SubsetSize(S) returns, for Q1–Q11 over seeded random graphs at N ∈
// {1,4,7}, at the default per-sample budget and at one so small that runs
// truncate (a truncated run must share no prefix). The pass's subset work
// is the fresh estimates' total less the sets it never sampled.
func TestSubsetPrefixesShareExactly(t *testing.T) {
	var truncated int
	var saved int64
	for qi := 1; qi <= 11; qi++ {
		q := hypergraph.Get(fmt.Sprintf("Q%d", qi))
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rels := q.BindGraph(testutil.RandEdges(rng, "E", 300*int(seed), 30*seed))
			base := newOpt(t, q, rels, 1)
			for _, n := range []int{1, 4, 7} {
				for _, budget := range []int64{5000, 30} {
					o := freshPass(base)
					o.opts.Params = testParams(n)
					o.subsetBudget = budget
					if _, err := o.CoOptimize(); err != nil {
						t.Fatal(err)
					}
					var freshOps int64
					for key, v := range o.tCache {
						set := strings.Split(key, "\x00")
						fresh := freshPass(o)
						if got := fresh.SubsetSize(set); got != v {
							t.Fatalf("%s seed %d N=%d budget %d: memoized |T_%v| = %v, a fresh estimate %v",
								q.Name, seed, n, budget, set, v, got)
						}
						freshOps += fresh.SampleOps
						if truncated > 0 || budget == 5000 {
							continue
						}
						est, err := fresh.ix.Estimate(rels, fresh.orderWithPrefix(set), fresh.subsetConfig(len(set)))
						if err != nil {
							t.Fatal(err)
						}
						if est.Truncated {
							truncated++
						}
					}
					bags := freshPass(o)
					for id := range o.bagCache {
						bags.BagSize(id)
					}
					s := freshOps - (o.SampleOps - bags.SampleOps)
					if s < 0 {
						t.Fatalf("%s seed %d N=%d budget %d: the pass sampled %d ops more than one fresh estimate per set",
							q.Name, seed, n, budget, -s)
					}
					saved += s
				}
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no estimate truncated: the small budget no longer covers the truncated case")
	}
	if saved == 0 {
		t.Fatal("no pass read a set off a deeper run")
	}
}

func TestCoOptimizePlanValid(t *testing.T) {
	for _, qn := range []string{"Q1", "Q4", "Q5", "Q6"} {
		qn := qn
		t.Run(qn, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			edges := testutil.RandEdges(rng, "E", 600, 30)
			q := hypergraph.Get(qn)
			rels := q.BindGraph(edges)
			o := newOpt(t, q, rels, 4)
			plan, err := o.CoOptimize()
			if err != nil {
				t.Fatal(err)
			}
			// Traversal covers all bags exactly once with connected prefixes.
			if len(plan.Traversal) != len(o.Decomp.Bags) {
				t.Fatalf("traversal %v over %d bags", plan.Traversal, len(o.Decomp.Bags))
			}
			seen := map[int]bool{}
			for _, v := range plan.Traversal {
				if seen[v] {
					t.Fatalf("bag %d twice in %v", v, plan.Traversal)
				}
				seen[v] = true
			}
			// AttrOrder is a permutation of the query attrs and valid for the
			// decomposition.
			if len(plan.AttrOrder) != len(q.Attrs()) {
				t.Fatalf("attr order %v", plan.AttrOrder)
			}
			if !o.Decomp.IsValidAttrOrder(plan.AttrOrder) {
				t.Fatalf("attr order %v not valid for decomposition", plan.AttrOrder)
			}
			// Precomputed bags are never base bags.
			for _, id := range plan.Precompute {
				if o.Decomp.Bags[id].IsBase() {
					t.Fatalf("plan precomputes base bag %d", id)
				}
			}
		})
	}
}

func TestCoOptimizePrecomputesOnSkewedData(t *testing.T) {
	// On a skewed graph with Q5/Q6 the last traversed bags dominate cost
	// (Fig. 6) and pre-computing them pays off under the default constants.
	edges := dataset.Load("WT", 0.2)
	q := hypergraph.Q6()
	rels := q.BindGraph(edges)
	o := newOpt(t, q, rels, 8)
	plan, err := o.CoOptimize()
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Decomp.Bags) > 1 && len(plan.Precompute) == 0 {
		t.Logf("plan: %s", plan)
		t.Skip("optimizer chose no pre-computation on this instance; acceptable when comm dominates")
	}
}

func TestCommunicationFirstNeverPrecomputes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	edges := testutil.RandEdges(rng, "E", 500, 25)
	q := hypergraph.Q5()
	o := newOpt(t, q, q.BindGraph(edges), 4)
	plan, err := o.CommunicationFirst()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Precompute) != 0 {
		t.Fatal("communication-first must not pre-compute")
	}
	if plan.Est.PreCompute != 0 {
		t.Fatal("communication-first pre-compute cost must be 0")
	}
}

func TestChooseOrderPrefersSmallIntermediates(t *testing.T) {
	// Construct a database where starting from attribute c explodes:
	// R1(a,b) tiny, R2(b,c) fan-out heavy.
	r1 := relation.FromTuples("R1", []string{"a", "b"}, [][]relation.Value{{1, 1}})
	var r2rows [][]relation.Value
	for i := relation.Value(0); i < 200; i++ {
		r2rows = append(r2rows, []relation.Value{1, i})
	}
	r2 := relation.FromTuples("R2", []string{"b", "c"}, r2rows)
	q := hypergraph.Query{Name: "Qp", Atoms: []hypergraph.Atom{
		{Name: "R1", Attrs: []string{"a", "b"}},
		{Name: "R2", Attrs: []string{"b", "c"}},
	}}
	o := newOpt(t, q, []*relation.Relation{r1, r2}, 2)
	got := o.ChooseOrder([][]string{{"c", "b", "a"}, {"a", "b", "c"}})
	if got[0] != "a" {
		t.Fatalf("order=%v, want a first (c-first explores 200 intermediates)", got)
	}
}

func TestExhaustiveAtLeastAsGoodAsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	edges := testutil.RandEdges(rng, "E", 400, 25)
	q := hypergraph.Q5()
	rels := q.BindGraph(edges)
	o := newOpt(t, q, rels, 4)
	greedy, err := o.CoOptimize()
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := o.ExhaustivePlan()
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive.Est.Total() > greedy.Est.Total()*1.0001 {
		t.Fatalf("exhaustive %.4f worse than greedy %.4f", exhaustive.Est.Total(), greedy.Est.Total())
	}
}

func TestBagRelationName(t *testing.T) {
	q := hypergraph.PaperExample()
	rng := rand.New(rand.NewSource(9))
	db := hypergraph.Database{}
	for _, a := range q.Atoms {
		db[a.Name] = testutil.RandRelation(rng, a.Name, a.Attrs, 20, 5)
	}
	rels, err := q.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	o := newOpt(t, q, rels, 2)
	for _, b := range o.Decomp.Bags {
		name := BagRelationName(o.Decomp, b.ID)
		if name == "" {
			t.Fatal("empty bag name")
		}
	}
	plan, err := o.CoOptimize()
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() == "" {
		t.Fatal("empty plan string")
	}
}

func TestPlanningPassSharesTries(t *testing.T) {
	// A whole co-optimization of Q5 over a BindGraph database — a dozen
	// subset and bag estimates under different orders — reads one edge list
	// in two directions, so the pass's index builds two tries.
	edges := dataset.Load("LJ", 0.05)
	q := hypergraph.Q5()
	o := newOpt(t, q, q.BindGraph(edges), 4)
	if _, err := o.CoOptimize(); err != nil {
		t.Fatal(err)
	}
	if len(o.tCache) < 5 {
		t.Fatalf("co-optimization ran only %d subset estimates", len(o.tCache))
	}
	if n := o.ix.TriesBuilt(); n != 2 {
		t.Fatalf("planning pass built %d tries, want 2", n)
	}
}

// ChooseOrderSketch is a function of its inputs: 500 calls pick one order on
// the equal-size triangle (Q1 with every atom bound to one graph, LJ@0.5:
// [a b c] and [b a c] cost the same up to float rounding, which dividing in
// map order decided differently on one call in five) and on Q1–Q6 over the
// LJ@0.05 test graph. Run under -cpu 1,2,4 by CI.
func TestChooseOrderSketchDeterministic(t *testing.T) {
	type input struct {
		q     hypergraph.Query
		scale float64
	}
	inputs := []input{{hypergraph.Q1(), 0.5}}
	for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q2(), hypergraph.Q3(), hypergraph.Q4(), hypergraph.Q5(), hypergraph.Q6()} {
		inputs = append(inputs, input{q, 0.05})
	}
	for _, in := range inputs {
		o := newOpt(t, in.q, in.q.BindGraph(dataset.Load("LJ", in.scale)), 4)
		orders := ghd.AllAttrOrders(in.q.Attrs())
		first := o.ChooseOrderSketch(orders)
		for call := 1; call < 500; call++ {
			if got := o.ChooseOrderSketch(orders); !slices.Equal(got, first) {
				t.Fatalf("%s on LJ@%v: call %d chose %v, the first call %v", in.q.Name, in.scale, call, got, first)
			}
		}
	}
}

// Cancelling through Options.Cancel in the middle of a round — its subset
// and bag estimates sampling side by side — stops every estimate of the
// round promptly, and CoOptimize returns without leaving one running.
func TestCoOptimizeCancelMidRound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edges := testutil.RandEdges(rng, "E", 20000, 600)
	q := hypergraph.Q5()
	const fire = 2000
	var polls, peak atomic.Int64
	before := runtime.NumGoroutine()
	cancel := func() bool {
		n := polls.Add(1)
		if n%50 == 0 {
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
		}
		return n > fire
	}
	// Uncancelled, this pass samples for about six seconds on two cores.
	o, err := New(q, q.BindGraph(edges), Options{Params: testParams(4), Samples: 200_000, Seed: 1, Cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	o.CoOptimize() // the plan of a cancelled pass is abandoned
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("cancelled planning returned after %v", d)
	}
	if p := polls.Load(); p <= fire {
		t.Fatalf("planning finished after %d polls, before the cancel at %d", p, fire)
	}
	if p := peak.Load(); p <= int64(before) {
		t.Fatalf("no estimate ran beside the test's goroutine (peak %d, %d before)", p, before)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d → %d across a cancelled plan", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// A batch of needs leaves the memos and SampleOps exactly as asking for
// them one at a time, in order: random batches of subsets (many of them
// canonical prefixes of an earlier set, whose own runs the batch must drop
// when that set's run is untruncated) and bags, at a subset budget that
// finishes and at one that truncates.
func TestFillMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dropped int
	for _, q := range []hypergraph.Query{hypergraph.Q2(), hypergraph.Q5(), hypergraph.Q11()} {
		rels := q.BindGraph(testutil.RandEdges(rng, "E", 800, 60))
		base := newOpt(t, q, rels, 4)
		attrs := q.Attrs()
		for _, budget := range []int64{5000, 30} {
			for range 20 {
				var needs []need
				for range 1 + rng.Intn(6) {
					if rng.Intn(4) == 0 {
						needs = append(needs, need{bag: rng.Intn(len(base.Decomp.Bags))})
						continue
					}
					var set []string
					for _, p := range rng.Perm(len(attrs))[:1+rng.Intn(len(attrs))] {
						set = append(set, attrs[p])
					}
					needs = append(needs, need{set: set})
				}
				batch, seq := freshPass(base), freshPass(base)
				batch.subsetBudget, seq.subsetBudget = budget, budget
				batch.fill(needs)
				for _, n := range needs {
					if n.set == nil {
						seq.BagSize(n.bag)
					} else {
						seq.SubsetSize(n.set)
					}
				}
				if !maps.Equal(batch.tCache, seq.tCache) || !maps.Equal(batch.bagCache, seq.bagCache) || batch.SampleOps != seq.SampleOps {
					t.Fatalf("%s budget %d needs %v: batch memos %v %v ops %d, one at a time %v %v ops %d",
						q.Name, budget, needs, batch.tCache, batch.bagCache, batch.SampleOps, seq.tCache, seq.bagCache, seq.SampleOps)
				}
				for i, n := range needs {
					for _, m := range needs[:i] {
						if n.set != nil && len(m.set) > len(n.set) &&
							slices.Equal(batch.orderWithPrefix(m.set)[:len(n.set)], batch.orderWithPrefix(n.set)[:len(n.set)]) {
							dropped++
						}
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no batch held a set an earlier set covers as a prefix")
	}
}
