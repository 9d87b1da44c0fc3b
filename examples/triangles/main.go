// Triangle counting at scale: the workload from the paper's introduction
// (finding triangles and complex patterns in graphs). This example runs the
// triangle query with all five engines over a skewed web graph — all on one
// session, so every engine's prepared query executes against the same
// registered relation — shows why one-round engines shuffle orders of
// magnitude less than multi-round ones, then scales ADJ from 1 to 16
// workers and finishes with the repeated-query case the Session API is
// built for.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"adj"
)

func main() {
	edges := adj.GenerateGraph("WB", 0.25) // web-BerkStan analogue
	q := adj.CatalogQuery("Q1")
	fmt.Printf("counting triangles on %d edges\n\n", edges.Len())

	fmt.Println("--- engine comparison (4 workers, one session) ---")
	sess := open(4, edges)
	for _, name := range adj.EngineNames() {
		pq, err := sess.PrepareGraph(name, q, "edges")
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		res, err := pq.Exec(context.Background(), adj.CountOnly())
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		rep := res.Report()
		status := fmt.Sprintf("%d triangles", res.Count())
		if rep.Failed {
			status = "FAILED: " + rep.FailReason
		}
		fmt.Printf("%-13s total=%7.3fs shuffled=%9d tuples   %s\n",
			name, rep.Total(), rep.TuplesShuffled, status)
	}
	sess.Close()

	fmt.Println("\n--- ADJ scaling (simulated workers) ---")
	var t1 float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		sess := open(n, edges)
		pq, err := sess.PrepareGraph("ADJ", q, "edges")
		if err != nil {
			log.Fatal(err)
		}
		res, err := pq.Exec(context.Background(), adj.CountOnly())
		if err != nil {
			log.Fatal(err)
		}
		sess.Close()
		rep := res.Report()
		exec := rep.PreComputing + rep.Communication + rep.Computation
		if n == 1 {
			t1 = exec
		}
		speedup := 0.0
		if exec > 0 {
			speedup = t1 / exec
		}
		fmt.Printf("workers=%2d exec=%7.4fs speedup=%.2fx\n", n, exec, speedup)
	}

	// The serving case: the same query stream hitting a resident session.
	// Execution 1 is cold; the rest adopt the published block tries.
	fmt.Println("\n--- repeated queries on a resident session ---")
	sess = open(8, edges)
	defer sess.Close()
	pq, err := sess.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		res, err := pq.Exec(context.Background(), adj.CountOnly())
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Report()
		fmt.Printf("exec %d: %d triangles in %7.4fs wall — %d tuples shuffled, %d tries built, %d cache hits\n",
			i+1, res.Count(), time.Since(t0).Seconds(),
			rep.TuplesShuffled, rep.TrieBuilds, rep.TrieCacheHits)
	}
}

// open returns an n-worker session with the graph registered as "edges".
func open(n int, edges *adj.Relation) *adj.Session {
	sess, err := adj.Open(adj.Options{Workers: n, Samples: 300, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Register("edges", edges); err != nil {
		log.Fatal(err)
	}
	return sess
}
