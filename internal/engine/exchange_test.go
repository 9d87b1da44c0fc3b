package engine

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"adj/internal/cluster"
	"adj/internal/hypergraph"
	"adj/internal/plan"
	"adj/internal/relation"
	"adj/internal/testutil"
)

// The multi-round exchange recycles partition backings and receive targets
// through the workers' free lists (distjoin.go). That is safe only while no
// result aliases a recycled buffer, so with the poison hook on — every
// buffer overwritten on its way back to a worker — the oracle suites must
// read exactly as they do with it off: an aliasing kernel would be a wrong
// answer in the very exchange that recycled its input, not a heisenbug a
// few exchanges later.
func TestPoisonOnRecycle(t *testing.T) {
	poisonRecycled = true
	defer func() { poisonRecycled = false }()

	t.Run("EnginesAgreeProperty", TestEnginesAgreeProperty)
	t.Run("BigJoinMatchesNaiveRows", TestBigJoinMatchesNaiveRows)
	t.Run("CacheSchedulerEquivalenceAllEngines", TestCacheSchedulerEquivalenceAllEngines)

	// Every engine, rows against the oracle, over loopback TCP on a
	// resident cluster, so later runs take what earlier runs — of other
	// engines too — handed back. The disconnected query takes the broadcast
	// and keep routes (SparkSQL's cross product, BigJoin's unconstrained
	// propose rounds), and Hybrid's split plan on the path-attached triangle
	// takes the semijoin pre-reductions' derived route.
	t.Run("AllEnginesOverTCP", func(t *testing.T) {
		type instance struct {
			q       hypergraph.Query
			rels    []*relation.Relation
			want    *relation.Relation
			engines []string
		}
		var insts []instance
		graph := powerLawGraph(0.02, 9)
		for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q4()} {
			rels := q.BindGraph(graph)
			insts = append(insts, instance{q, rels, relation.NaiveJoin(rels, q.Attrs()), AllEngineNames()})
		}
		for _, ci := range contractInstances(t) {
			if ci.name == "Qdisc" {
				insts = append(insts, instance{ci.q, ci.rels, relation.NaiveJoin(ci.rels, ci.q.Attrs()), AllEngineNames()})
			}
		}
		// NaiveJoin's backtracking takes seconds on this instance; a chain
		// of in-memory hash joins, which no exchange touches, is the oracle.
		hq, hrels := hybridWorkload(500)
		if pp, err := Prepare("Hybrid", hq, hrels, smallCfg(4)); err != nil || !strings.Contains(pp.Program.Tree(), "Semijoin") {
			t.Fatalf("Hybrid on %s plans no semijoin (err %v); the case tests nothing", hq.Name, err)
		}
		chain := hrels[0]
		for _, r := range hrels[1:] {
			chain = relation.HashJoin(chain, r)
		}
		insts = append(insts, instance{hq, hrels, chain.ProjectMulti(hq.Attrs()...).SortDedup(), []string{"Hybrid"}})

		for _, sequential := range []bool{true, false} {
			tr, err := cluster.NewTCPTransport(4)
			if err != nil {
				t.Fatal(err)
			}
			c := cluster.New(cluster.Config{N: 4, Transport: tr, Sequential: sequential})
			defer c.Close()
			for _, inst := range insts {
				q := inst.q
				if inst.want.Len() == 0 {
					t.Fatalf("%s: empty oracle, the case tests nothing", q.Name)
				}
				for pass := 0; pass < 2; pass++ {
					for _, name := range inst.engines {
						cfg := smallCfg(4)
						cfg.Cluster, cfg.Sequential, cfg.CollectOutput = c, sequential, true
						rep, err := Run(name, q, inst.rels, cfg)
						if err != nil || rep.Failed {
							t.Fatalf("%s %s seq=%v pass %d: err %v, failed %q", q.Name, name, sequential, pass, err, rep.FailReason)
						}
						got := rep.Output.ProjectMulti(q.Attrs()...).Sort()
						if !got.Equal(inst.want) {
							t.Fatalf("%s %s seq=%v pass %d: %d rows, oracle has %d (sorted rows differ)",
								q.Name, name, sequential, pass, got.Len(), inst.want.Len())
						}
					}
				}
			}
		}
	})
}

// unsharedRoutes counts a program's exchanges whose inputs share no
// attribute: hash joins that are cross products, and propose rounds whose
// proposer shares no attribute with the bound prefix.
func unsharedRoutes(prog *plan.Program, rels []*relation.Relation) (cross, unconstrained int) {
	for _, op := range prog.Ops {
		switch {
		case op.Kind == plan.HashJoin && len(sharedAttrs(op.Left.Attrs, op.Right.Attrs)) == 0:
			cross++
		case op.Kind == plan.Extend && len(sharedAttrs(rels[op.RelIdx].Attrs, op.Prefix)) == 0:
			unconstrained++
		}
	}
	return cross, unconstrained
}

// The exchanges no catalog query reaches: the disconnected query is a cross
// product for SparkSQL (broadcast the smaller side, keep the larger) and
// has an unconstrained propose round for BigJoin, and so does the query
// over ternary relations of unequal sizes, whose smallest relation holding
// the second attribute shares nothing with the first. Every engine's rows
// equal NaiveJoin's, Sequential and parallel, at one worker and at four.
func TestUnsharedRoutesMatchNaive(t *testing.T) {
	for _, inst := range contractInstances(t) {
		if inst.name != "Qdisc" && inst.name != "Qtern" {
			continue
		}
		want := relation.NaiveJoin(inst.rels, inst.q.Attrs())
		if want.Len() == 0 {
			t.Fatalf("%s: empty oracle, the case tests nothing", inst.name)
		}
		for _, e := range engineTable {
			for _, n := range []int{1, 4} {
				for _, sequential := range []bool{true, false} {
					cfg := smallCfg(n)
					cfg.Sequential, cfg.CollectOutput = sequential, true
					pp, err := Prepare(e.name, inst.q, inst.rels, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cross, unconstrained := unsharedRoutes(pp.Program, inst.rels)
					if (e.name == "SparkSQL" && inst.name == "Qdisc" && cross == 0) || (e.name == "BigJoin" && unconstrained == 0) {
						t.Fatalf("%s %s: no cross product or unconstrained round in\n%s", e.name, inst.name, pp.Program.Tree())
					}
					cfg.Prepared = pp
					rep, err := Run(e.name, inst.q, inst.rels, cfg)
					if err != nil || rep.Failed {
						t.Fatalf("%s %s N=%d seq=%v: err %v, failed %q", e.name, inst.name, n, sequential, err, rep.FailReason)
					}
					if got := rep.Output.ProjectMulti(inst.q.Attrs()...).Sort(); !got.Equal(want) {
						t.Fatalf("%s %s N=%d seq=%v: %d rows, oracle has %d (sorted rows differ)",
							e.name, inst.name, n, sequential, got.Len(), want.Len())
					}
				}
			}
		}
	}
}

// A cross product over the budget fails at the budget, on every worker,
// before it is materialized. With two 1,500-edge relations and Budget 1000,
// a cross product joined by HashJoin — which has no limit — built all
// 2.16 M rows and allocated 69 MB before the global size check failed it;
// every engine now allocates under 2 MB, at one worker and at four.
func TestCrossProductFailsAtBudget(t *testing.T) {
	const ceiling = 8 << 20
	q, err := hypergraph.ParseQuery("Qx :- R(a,b) ⋈ S(c,d)")
	if err != nil {
		t.Fatal(err)
	}
	rels := q.BindGraph(testutil.RandEdges(rand.New(rand.NewSource(5)), "E", 1500, 200))
	for _, e := range engineTable {
		for _, n := range []int{1, 4} {
			cfg := smallCfg(n)
			cfg.Budget = 1000
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rep, err := Run(e.name, q, rels, cfg)
			runtime.ReadMemStats(&after)
			if err != nil || !rep.Failed {
				t.Fatalf("%s N=%d: err %v, failed %v (results=%d)", e.name, n, err, rep.Failed, rep.Results)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > ceiling {
				t.Fatalf("%s N=%d: failed %q after allocating %.1f MB, ceiling %d MB",
					e.name, n, rep.FailReason, float64(alloc)/(1<<20), ceiling>>20)
			}
		}
	}
}

// exchangeBytesPerTuple runs BigJoin then SparkSQL on Q1 over graph on a
// resident 4-worker local cluster and returns the bytes allocated per
// shuffled tuple from the third pair of runs onward.
func exchangeBytesPerTuple(t *testing.T, graph *relation.Relation) float64 {
	q := hypergraph.Q1()
	rels := q.BindGraph(graph)
	c := cluster.New(cluster.Config{N: 4})
	defer c.Close()
	var tuples int64
	pair := func() {
		for _, name := range []string{"BigJoin", "SparkSQL"} {
			rep, err := Run(name, q, rels, Config{Seed: 1, Ctx: context.Background(), Cluster: c})
			if err != nil || rep.Failed {
				t.Fatalf("%s: err %v, failed %q", name, err, rep.FailReason)
			}
			tuples += rep.TuplesShuffled
		}
	}
	pair()
	pair()
	const pairs = 5
	var before, after runtime.MemStats
	tuples = 0
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(tuples)
}

// TestExchangeSteadyStateAllocCeiling pins what the exchange's data path
// allocates once a resident cluster's free lists have filled: join outputs,
// indexes, the workers' fragments and payload slabs, but no partition
// backing and no receive target. Measured with every such buffer allocated
// per exchange (partitions into fresh columns, chunks decoded into a
// scratch relation and appended by 1.25× growth, payload slabs dropped after
// every run): 147.0 bytes per shuffled tuple on the 5 k-edge graph and 143.7
// on the 20 k-edge one. With recycling: 40.9 and 35.6. The ceiling is under
// half the former, and the two sizes stay within 25 % of each other —
// nothing on the path is paid per run rather than per tuple.
func TestExchangeSteadyStateAllocCeiling(t *testing.T) {
	const ceiling = 70
	// No collection while measuring, so the figure does not depend on
	// where one falls.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small := exchangeBytesPerTuple(t, powerLawGraph(0.072, 1)) // 4 996 edges
	large := exchangeBytesPerTuple(t, powerLawGraph(0.288, 1)) // 19 987 edges
	t.Logf("steady-state exchange: %.1f bytes per shuffled tuple over 5 k edges, %.1f over 20 k", small, large)
	if small > ceiling || large > ceiling {
		t.Fatalf("steady-state exchange allocates %.1f (5 k edges) and %.1f (20 k edges) bytes per shuffled tuple, ceiling %d", small, large, ceiling)
	}
	if large > 1.25*small || small > 1.25*large {
		t.Fatalf("bytes per shuffled tuple differ by more than 25 %% between graph sizes: %.1f over 5 k edges, %.1f over 20 k", small, large)
	}
}

// BenchmarkVerifyRound times one BigJoin verify exchange — partition,
// encode, send, decode, semijoin — on a resident local cluster: each of
// four workers holds about 50 k bindings (a,b,c) and a quarter of a
// 60 k-edge relation to verify them against.
func BenchmarkVerifyRound(b *testing.B) {
	const workers, perWorker = 4, 50000
	ver := powerLawGraph(0.865, 1) // ≈ 60 k edges
	ver.Name, ver.Attrs = "R3", []string{"a", "c"}
	src, dst := ver.Column(0), ver.Column(1)
	binds := relation.NewWithCapacity("bindings", workers*perWorker, "a", "b", "c")
	for i := 0; i < workers*perWorker; i++ {
		// Half the bindings close a triangle's third edge, half do not.
		e := (i * 7919) % ver.Len()
		binds.Append(src[e], relation.Value(i%9973), dst[(e+i%2)%ver.Len()])
	}
	c := cluster.New(cluster.Config{N: workers})
	defer c.Close()
	c.LoadRelation(ver)
	c.LoadRelation(binds)
	held := make([]*relation.Relation, workers)
	for i, w := range c.Workers {
		held[i] = w.Rels["bindings"]
	}
	round := func() int64 {
		for i, w := range c.Workers {
			w.Rels["bindings"] = held[i] // the round replaces it with what it kept
		}
		if _, err := verifyRound(c, "verify", ver, []string{"a", "b"}, "c"); err != nil {
			b.Fatal(err)
		}
		return c.GatherCounts(func(w *cluster.Worker) int64 { return int64(w.LocalSize("bindings")) })
	}
	kept := round()
	if kept == 0 || kept == int64(binds.Len()) {
		b.Fatalf("verify kept %d of %d bindings: the round filters nothing", kept, binds.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(binds.Len()+ver.Len()), "ns/tuple")
}
