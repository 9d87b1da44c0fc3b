// Quickstart: count triangles in a synthetic LiveJournal-like social graph
// with ADJ on a resident 8-worker session, read the cost breakdown, then
// run the same prepared query again — warm, with zero shuffle-side trie
// builds — and stream its results run by run.
package main

import (
	"context"
	"fmt"
	"log"

	"adj"
)

func main() {
	// A deterministic synthetic analogue of the paper's LJ dataset at 1/10
	// of the benchmark scale (≈7k edges) — instant to generate.
	edges := adj.GenerateGraph("LJ", 0.1)
	fmt.Printf("graph: %d edges\n", edges.Len())

	// A Session is the serving shape: a resident worker pool answering a
	// stream of queries over registered relations.
	sess, err := adj.Open(adj.Options{Workers: 8, Samples: 500, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Register("edges", edges); err != nil {
		log.Fatal(err)
	}

	// Q1 is the triangle query from the paper's catalog:
	// Q1 :- R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c), every atom bound to the graph.
	// Prepare pays sampling and plan selection once.
	q := adj.CatalogQuery("Q1")
	fmt.Println("query:", q)
	pq, err := sess.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		log.Fatal(err)
	}

	// Cold execution: HCube shuffle + block-trie builds, published to the
	// session's content-keyed trie store.
	res, err := pq.Exec(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report()
	fmt.Printf("triangles: %d\n", res.Count())
	fmt.Printf("plan:      %s (prepared in %.3fs)\n", rep.Plan, pq.PlanSeconds())
	fmt.Printf("cost:      precompute=%.3fs comm=%.3fs compute=%.3fs\n",
		rep.PreComputing, rep.Communication, rep.Computation)
	fmt.Printf("shuffled:  %d tuple copies, %d bytes; %d block tries built\n",
		rep.TuplesShuffled, rep.BytesShuffled, rep.TrieBuilds)

	// Warm execution: the relation content is unchanged, so the shuffle is
	// skipped entirely and every block trie is adopted from the store.
	res, err = pq.Exec(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	rep = res.Report()
	fmt.Printf("warm run:  %d triangles, %d tuples shuffled, %d tries built, %d cache hits\n",
		res.Count(), rep.TuplesShuffled, rep.TrieBuilds, rep.TrieCacheHits)

	// Results stream as prefix-replicated runs: one (a, b) binding plus the
	// run of all c values completing it — no row is gathered.
	var runs int
	for {
		_, _, ok := res.NextRun()
		if !ok {
			break
		}
		runs++
	}
	fmt.Printf("streamed:  %d results in %d runs\n", res.Count(), runs)
}
