package engine

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"adj/internal/cluster"
	"adj/internal/hypergraph"
	"adj/internal/relation"
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
	// engines too — handed back.
	t.Run("AllEnginesOverTCP", func(t *testing.T) {
		graph := powerLawGraph(0.02, 9)
		for _, sequential := range []bool{true, false} {
			tr, err := cluster.NewTCPTransport(4)
			if err != nil {
				t.Fatal(err)
			}
			c := cluster.New(cluster.Config{N: 4, Transport: tr, Sequential: sequential})
			defer c.Close()
			for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q4()} {
				rels := q.BindGraph(graph)
				want := relation.NaiveJoin(rels, q.Attrs())
				if want.Len() == 0 {
					t.Fatalf("%s: empty oracle, the case tests nothing", q.Name)
				}
				for pass := 0; pass < 2; pass++ {
					for _, name := range EngineNames() {
						cfg := smallCfg(4)
						cfg.Cluster, cfg.Sequential, cfg.CollectOutput = c, sequential, true
						rep, err := Run(name, q, rels, cfg)
						if err != nil || rep.Failed {
							t.Fatalf("%s %s seq=%v pass %d: err %v, failed %q", q.Name, name, sequential, pass, err, rep.FailReason)
						}
						got := rep.Output.ProjectMulti(q.Attrs()...).Sort()
						if !got.Equal(want.Renamed(got.Name)) {
							t.Fatalf("%s %s seq=%v pass %d: %d rows, oracle has %d (sorted rows differ)",
								q.Name, name, sequential, pass, got.Len(), want.Len())
						}
					}
				}
			}
		}
	})
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
		if err := verifyRound(c, "verify", ver, []string{"a", "b"}, "c"); err != nil {
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
