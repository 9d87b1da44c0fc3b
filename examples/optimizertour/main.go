// Optimizer tour: a walk through every stage of ADJ's planner on the
// paper's running example (Eq. 2 / Fig. 2 / Fig. 5) — the hypergraph, its
// optimal hypertree decomposition, valid traversal and attribute orders,
// sampling-based cardinality estimates, and the final co-optimized plan.
// This example reaches into the library's internal packages (it lives in
// the same module) to show the machinery the public API drives, and closes
// with where that planning cost lives in the public Session API: paid once
// at Prepare, amortized over every Exec.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"adj"
	"adj/internal/costmodel"
	"adj/internal/ghd"
	"adj/internal/hypergraph"
	"adj/internal/optimizer"
	"adj/internal/relation"
	"adj/internal/sampling"
)

func main() {
	// The paper's running example: Q(a,b,c,d,e) over five relations
	// (Eq. 2), with a random database standing in for Fig. 2's toy one.
	q := hypergraph.PaperExample()
	fmt.Println("query:     ", q)

	rng := rand.New(rand.NewSource(42))
	db := hypergraph.Database{}
	for _, atom := range q.Atoms {
		r := relation.New(atom.Name, atom.Attrs...)
		for i := 0; i < 400; i++ {
			row := make([]relation.Value, len(atom.Attrs))
			for j := range row {
				row[j] = rng.Int63n(40)
			}
			r.AppendTuple(row)
		}
		db[atom.Name] = r.SortDedup()
	}
	rels, err := q.Bind(db)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1 — hypergraph and GHD (§III-A, Fig. 5): bags become the only
	// candidate pre-computed relations.
	d, err := ghd.Decompose(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- hypertree decomposition ---")
	fmt.Println(d)

	// Stage 2 — the reduced order space: traversal orders with connected
	// prefixes, and the valid attribute orders they induce.
	fmt.Println("\n--- order space ---")
	tr := d.TraversalOrders()
	fmt.Printf("valid traversal orders: %v\n", tr)
	valid := d.ValidAttrOrders()
	all := ghd.AllAttrOrders(q.Attrs())
	fmt.Printf("attribute orders: %d valid of %d total (%.0f%% pruned)\n",
		len(valid), len(all), 100*(1-float64(len(valid))/float64(len(all))))

	// Stage 3 — sampling-based cardinality estimation (§IV).
	fmt.Println("\n--- sampling (§IV) ---")
	order := d.AttrOrderFor(tr[0])
	est, err := sampling.EstimateCardinality(rels, order, sampling.Config{Samples: 2000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("order %v: |val(%s)|=%d  estimated |T_i| per level: ", order, order[0], est.ValA)
	for _, c := range est.LevelCounts {
		fmt.Printf("%.0f ", c)
	}
	fmt.Printf("\nestimated |Q| = %.0f   (k=%d samples in %.3fs)\n",
		est.Cardinality, est.Samples, est.Seconds)
	fmt.Printf("Hoeffding: %d samples give error ≤ 10%% of max with 95%% confidence\n",
		sampling.SampleSize(0.1, 0.05))

	// Stage 4 — Alg. 2: reverse-greedy co-optimization.
	fmt.Println("\n--- co-optimization (Alg. 2) ---")
	opt, err := optimizer.New(q, rels, optimizer.Options{
		Params:  costmodel.DefaultParams(8),
		Samples: 1500,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := opt.CoOptimize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("co-opt plan:  ", plan)
	cf, err := opt.CommunicationFirst()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("comm-first:   ", cf)
	ex, err := opt.ExhaustivePlan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive:    %s\n", ex)
	fmt.Printf("\ngreedy est %.4fs vs exhaustive est %.4fs (Alg. 2 quality check)\n",
		plan.Est.Total(), ex.Est.Total())

	// Stage 5 — where planning lives in the public API: Session.Prepare
	// runs exactly this pipeline once; every Exec reuses the cached plan
	// (and, warm, the published block tries).
	fmt.Println("\n--- the same planning through the Session API ---")
	sess, err := adj.Open(adj.Options{Workers: 8, Samples: 1500, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	if err := sess.RegisterDatabase(adj.Database(db)); err != nil {
		log.Fatal(err)
	}
	pq, err := sess.Prepare("ADJ", q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared plan: %s\n", pq.Plan())
	for i := 0; i < 2; i++ {
		res, err := pq.Exec(context.Background(), adj.CountOnly())
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Report()
		fmt.Printf("exec %d: |Q|=%d, optimization charged %.4fs, tries built %d\n",
			i+1, res.Count(), rep.Optimization, rep.TrieBuilds)
	}
	fmt.Printf("planning paid once at Prepare: %.4fs\n", pq.PlanSeconds())
}
