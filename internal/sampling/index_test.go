package sampling

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adj/internal/hypergraph"
	"adj/internal/leapfrog"
	"adj/internal/relation"
	"adj/internal/testutil"
)

// referenceEstimate is the plain sequential sampler the sharded one must
// reproduce bit for bit: val(A) from sorted column projections, fresh
// tries, one extender, one sample after another. It is truncated when some
// sample's descent stopped at the budget.
func referenceEstimate(t *testing.T, rels []*relation.Relation, order []string, cfg Config) Estimate {
	t.Helper()
	n := len(order)
	vals := ValA(rels, order[0])
	est := Estimate{ValA: len(vals), LevelCounts: make([]float64, n), LevelOps: make([]int64, n), Samples: cfg.Samples}
	if len(vals) == 0 {
		return est
	}
	ext, err := leapfrog.NewExtender(leapfrog.BuildTries(rels, order), order)
	if err != nil {
		t.Fatal(err)
	}
	depth := n
	if cfg.MaxDepth > 0 && cfg.MaxDepth < n {
		depth = cfg.MaxDepth
	}
	budget := cfg.PerSampleBudget
	rng := rand.New(rand.NewSource(cfg.Seed))
	for s := 0; s < cfg.Samples; s++ {
		binding := make([]relation.Value, n)
		binding[0] = vals[rng.Intn(len(vals))]
		est.LevelOps[0]++
		var work int64
		var rec func(d int) bool
		rec = func(d int) bool {
			if d >= depth {
				return true
			}
			if d == n-1 {
				limit := int64(-1)
				if budget > 0 {
					limit = budget - work + 1
				}
				cnt, w := ext.DrainLeaf(binding, d, limit, nil)
				work += w
				if budget > 0 && cnt > 0 {
					if rem := budget - work + 1; rem < cnt {
						cnt = max(rem, 1)
					}
				}
				est.LevelOps[d] += cnt
				work += cnt
				return budget <= 0 || work <= budget
			}
			vs, w := ext.Extend(binding, d)
			work += w
			for _, v := range vs {
				binding[d] = v
				est.LevelOps[d]++
				work++
				if budget > 0 && work > budget {
					return false
				}
				if !rec(d + 1) {
					return false
				}
			}
			return true
		}
		if n > 1 && !rec(1) {
			est.Truncated = true
		}
		est.WorkOps += work
	}
	for i, c := range est.LevelOps {
		est.LevelCounts[i] = float64(len(vals)) * float64(c) / float64(cfg.Samples)
	}
	est.LevelCounts[0] = float64(len(vals))
	est.Cardinality = est.LevelCounts[n-1]
	return est
}

// tallies strips the timing field, leaving what must be reproducible.
func tallies(e Estimate) Estimate {
	e.Seconds = 0
	return e
}

func TestEstimateIdenticalAcrossCores(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := testutil.RandEdges(rng, "E", 3000, 300)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var truncated, whole int
	for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q5()} {
		rels := q.BindGraph(edges)
		order := q.Attrs()
		for _, cfg := range []Config{
			{Samples: 500, Seed: 3},
			{Samples: 500, Seed: 3, PerSampleBudget: 40},
			{Samples: 500, Seed: 3, MaxDepth: 2},
			{Samples: 500, Seed: 3, PerSampleBudget: 40, MaxDepth: len(order) - 1},
			{Samples: 7, Seed: 3}, // fewer samples than a shard is worth
		} {
			want := referenceEstimate(t, rels, order, cfg)
			if want.WorkOps == 0 {
				t.Fatalf("%s %+v: reference did no work", q.Name, cfg)
			}
			if want.Truncated {
				truncated++
			} else {
				whole++
			}
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := EstimateCardinality(rels, order, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tallies(got), want) {
					t.Fatalf("%s %+v GOMAXPROCS=%d:\n got %+v\nwant %+v", q.Name, cfg, procs, tallies(got), want)
				}
			}
		}
	}
	if truncated == 0 || whole == 0 {
		t.Fatalf("%d truncated and %d whole estimates: the budgets no longer cover both", truncated, whole)
	}
}

// A depth-1 estimate is |val(A)| without a sample drawn: its tallies are the
// reference sampler's (k bindings at level 0, no work) at any core count,
// under a depth bound or over a one-attribute order.
func TestDepthOneEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	edges := testutil.RandEdges(rng, "E", 2000, 200)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	q := hypergraph.Q5()
	rels := q.BindGraph(edges)
	unary := relation.FromColumns("U", []string{"a"}, [][]relation.Value{edges.Column(0)})
	for _, in := range []struct {
		rels  []*relation.Relation
		order []string
		cfg   Config
	}{
		{rels, q.Attrs(), Config{Samples: 300, Seed: 4, MaxDepth: 1}},
		{rels, q.Attrs(), Config{Samples: 300, Seed: 4, MaxDepth: 1, PerSampleBudget: 1}},
		{[]*relation.Relation{unary}, []string{"a"}, Config{Samples: 77, Seed: 4}},
	} {
		want := referenceEstimate(t, in.rels, in.order, in.cfg)
		if want.ValA == 0 || want.LevelOps[0] != int64(in.cfg.Samples) || want.WorkOps != 0 {
			t.Fatalf("%v %+v: reference %+v is not a depth-1 tally", in.order, in.cfg, want)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := EstimateCardinality(in.rels, in.order, in.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tallies(got), want) {
				t.Fatalf("%v %+v GOMAXPROCS=%d:\n got %+v\nwant %+v", in.order, in.cfg, procs, tallies(got), want)
			}
		}
	}
}

func TestPlanningIndexSharesByContent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	edges := testutil.RandEdges(rng, "E", 2000, 50)
	cfg := Config{Samples: 200, Seed: 5, PerSampleBudget: 500}

	// Every atom of a BindGraph database is a renamed view of one edge
	// list: a pass over any number of orders holds the (src,dst) and
	// (dst,src) tries and nothing else, and sorts no column on the side
	// (val(A) is the tries' first level).
	q := hypergraph.Q5()
	rels := q.BindGraph(edges)
	ix := NewIndex()
	for _, order := range [][]string{
		{"a", "b", "c", "d", "e"}, {"e", "d", "c", "b", "a"}, {"b", "d", "e", "c", "a"}, {"c", "a", "e", "b", "d"},
	} {
		got, err := ix.Estimate(rels, order, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEstimate(t, rels, order, cfg); !reflect.DeepEqual(tallies(got), want) {
			t.Fatalf("order %v through a shared index:\n got %+v\nwant %+v", order, tallies(got), want)
		}
	}
	if n := ix.TriesBuilt(); n != 2 {
		t.Fatalf("Q5 over one edge list built %d tries, want 2", n)
	}

	// Identity is content, not name: equal names over different columns
	// stay apart, and so does a shorter relation sharing a column's first
	// element.
	other := testutil.RandEdges(rng, "E", 2000, 50)
	half := relation.FromColumns("E", []string{"src", "dst"},
		[][]relation.Value{edges.Column(0)[:edges.Len()/2], edges.Column(1)[:edges.Len()/2]})
	for _, second := range []*relation.Relation{other, half} {
		pair := []*relation.Relation{edges.Renamed("R"), second.Renamed("R")}
		pair[0].Attrs = []string{"a", "b"}
		pair[1].Attrs = []string{"b", "c"}
		order := []string{"a", "b", "c"}
		ix := NewIndex()
		got, err := ix.Estimate(pair, order, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEstimate(t, pair, order, cfg); !reflect.DeepEqual(tallies(got), want) {
			t.Fatalf("same-named relations aliased:\n got %+v\nwant %+v", tallies(got), want)
		}
		if n := ix.TriesBuilt(); n != 2 {
			t.Fatalf("two different relations named R built %d tries, want 2", n)
		}
	}

	// Arity 3: the key is the whole level sequence, so each direction of
	// R1(a,b,c) is its own trie and the binary atoms still share.
	pq := hypergraph.PaperExample()
	tern := relation.New("T", "x", "y", "z")
	for i := 0; i < 1500; i++ {
		tern.Append(rng.Int63n(30), rng.Int63n(30), rng.Int63n(30))
	}
	bound := make([]*relation.Relation, len(pq.Atoms))
	for i, a := range pq.Atoms {
		src := edges
		if len(a.Attrs) == 3 {
			src = tern
		}
		bound[i] = src.Renamed(a.Name)
		bound[i].Attrs = append([]string(nil), a.Attrs...)
	}
	ix = NewIndex()
	for _, order := range [][]string{{"a", "b", "c", "d", "e"}, {"e", "d", "c", "b", "a"}, {"b", "a", "c", "d", "e"}} {
		got, err := ix.Estimate(bound, order, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEstimate(t, bound, order, cfg); !reflect.DeepEqual(tallies(got), want) {
			t.Fatalf("paper example, order %v:\n got %+v\nwant %+v", order, tallies(got), want)
		}
	}
	// Three directions of the ternary relation, two of the edge list.
	if n := ix.TriesBuilt(); n != 5 {
		t.Fatalf("paper example built %d tries, want 5", n)
	}
}

// Estimates running side by side on one index share its tries and each
// equals the reference: a planning round's batch, with every estimate
// asking for the index's tries at once.
func TestIndexConcurrentEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	edges := testutil.RandEdges(rng, "E", 2000, 150)
	q := hypergraph.Q5()
	rels := q.BindGraph(edges)
	orders := [][]string{
		{"a", "b", "c", "d", "e"}, {"e", "d", "c", "b", "a"}, {"b", "d", "e", "c", "a"},
		{"c", "a", "e", "b", "d"}, {"d", "b", "a", "e", "c"}, {"b", "a", "c", "d", "e"},
	}
	cfgs := []Config{{Samples: 300, Seed: 5}, {Samples: 300, Seed: 5, PerSampleBudget: 60, MaxDepth: 3}}
	ix := NewIndex()
	got := make([]Estimate, len(orders)*len(cfgs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			est, err := ix.Estimate(rels, orders[i/len(cfgs)], cfgs[i%len(cfgs)])
			if err != nil {
				t.Error(err)
			}
			got[i] = est
		}()
	}
	wg.Wait()
	for i, est := range got {
		order, cfg := orders[i/len(cfgs)], cfgs[i%len(cfgs)]
		if want := referenceEstimate(t, rels, order, cfg); !reflect.DeepEqual(tallies(est), want) {
			t.Fatalf("order %v %+v beside %d others:\n got %+v\nwant %+v", order, cfg, len(got)-1, tallies(est), want)
		}
	}
	if n := ix.TriesBuilt(); n != 2 {
		t.Fatalf("concurrent estimates over Q5 built %d tries, want 2", n)
	}
}

func TestEstimateCancelStopsEveryShard(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edges := testutil.RandEdges(rng, "E", 20000, 5000)
	q := hypergraph.Q5()
	rels := q.BindGraph(edges)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// Uncancelled, this many samples run for seconds.
	const samples = 2_000_000
	before := runtime.NumGoroutine()
	var polls atomic.Int64
	cancel := func() bool { return polls.Add(1) > 1000 }
	t0 := time.Now()
	est, err := EstimateCardinality(rels, q.Attrs(), Config{Samples: samples, Seed: 1, PerSampleBudget: 5000, Cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}
	if est.LevelOps[0] == 0 || est.LevelOps[0] > 1000 {
		t.Fatalf("evaluated %d samples around a cancel at poll 1000", est.LevelOps[0])
	}
	// Every shard polls: four shards stop within four polls of the cancel.
	if p := polls.Load(); p > 1000+4 {
		t.Fatalf("%d polls after the cancel fired: some shard kept sampling", p-1000)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("cancelled estimate returned after %v", d)
	}
	// The estimate waits for its shards, so none outlives it. A shard past
	// its wg.Done may still be counted for a moment while it exits.
	waitGoroutines(t, before, "a cancelled estimate")
}

// waitGoroutines fails the test unless the goroutine count is back to
// before within a second.
func waitGoroutines(t *testing.T, before int, across string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d → %d across %s", before, after, across)
		}
		time.Sleep(time.Millisecond)
	}
}
