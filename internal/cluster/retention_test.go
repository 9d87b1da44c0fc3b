package cluster_test

import (
	"context"
	"math/rand"
	"testing"

	"adj/internal/cluster"
	"adj/internal/engine"
	"adj/internal/hypergraph"
	"adj/internal/testutil"
)

// A resident cluster that runs the same query again and again keeps what
// one run's exchanges need and no more: the bytes its workers' free lists
// hold stop growing once the second run has ended. Exactly so under
// Sequential, where every request repeats in the same order. In parallel
// runs a worker's two halves race for the few buffers either could use, so
// a later run may find one taken that an earlier run found free and add it
// (measured: one or two small buffers, under 1 %, in 3 of 10 trials);
// allow 5 %.
func TestRetainedBytesSettleOnResidentCluster(t *testing.T) {
	q := hypergraph.Q1()
	rels := q.BindGraph(testutil.RandEdges(rand.New(rand.NewSource(8)), "E", 1500, 120))
	for _, sequential := range []bool{true, false} {
		c := cluster.New(cluster.Config{N: 4, Sequential: sequential})
		retained := func() int {
			total := 0
			for _, w := range c.Workers {
				total += cluster.RetainedBytes(w)
			}
			return total
		}
		run := func() {
			for _, name := range []string{"BigJoin", "SparkSQL"} {
				cfg := engine.Config{Seed: 1, Ctx: context.Background(), Cluster: c, Sequential: sequential}
				if rep, err := engine.Run(name, q, rels, cfg); err != nil || rep.Failed {
					t.Fatalf("%s: err %v, failed %q", name, err, rep.FailReason)
				}
			}
		}
		run()
		run()
		settled := retained()
		limit := settled
		if !sequential {
			limit += settled / 20
		}
		if settled == 0 {
			t.Fatalf("sequential=%v: nothing retained after two runs: the exchanges recycle no buffer", sequential)
		}
		for i := 2; i < 100; i++ {
			run()
			if now := retained(); now > limit {
				t.Fatalf("sequential=%v: free lists hold %d bytes after run %d, %d after the second", sequential, now, i+1, settled)
			}
		}
		c.Close()
	}
}
