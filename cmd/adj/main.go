// Command adj runs a join query on a simulated cluster with any of the
// engines and prints the paper-style cost breakdown. Runs go through the
// Session API under a context that SIGINT cancels: the dataset is
// registered once, the query is prepared once (planning amortized), and
// -repeat executes it repeatedly on the resident workers — repeated
// executions go warm, served from the session's content-keyed block-trie
// store with zero shuffle-side builds.
//
// Examples:
//
//	adj -query Q1 -dataset LJ -scale 0.1 -engine ADJ -workers 8
//	adj -query Q1 -dataset LJ -engine ADJ -repeat 5      # cold + 4 warm execs
//	adj -query 'Qt :- R(a,b) ⋈ S(b,c) ⋈ T(a,c)' -snap edges.txt -engine HCubeJ
//	adj -query Q5 -dataset OK -all            # compare every engine
//
// Note -all runs every engine on the same session: engines whose shuffles
// agree on shares and attribute order reuse each other's published block
// tries (visible as builds=0 / zero shuffled tuples on later engines).
// For isolated per-engine measurements run one engine per invocation;
// benchmark/ measures end-to-end and per-layer costs with repeats.
//
//	adj -query Q6 -dataset LJ -explain              # print ADJ's plan DAG only
//	adj -query Q5 -dataset LJ -engine Hybrid -explain   # the hybrid route's DAG
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"adj"
)

func main() {
	var (
		queryStr = flag.String("query", "Q1", "catalog name (Q1..Q11) or full query text 'Q :- R1(a,b) ⋈ ...'")
		dataset  = flag.String("dataset", "LJ", "named synthetic dataset: WB AS WT LJ EN OK")
		scale    = flag.Float64("scale", 0.1, "dataset scale (1.0 ≈ paper edge counts ×10⁻³)")
		snap     = flag.String("snap", "", "load a SNAP edge-list file instead of a synthetic dataset")
		engine   = flag.String("engine", "ADJ", "engine: "+strings.Join(adj.AllEngineNames(), " "))
		workers  = flag.Int("workers", 8, "simulated cluster size")
		samples  = flag.Int("samples", 1000, "sampling budget for the optimizer")
		seed     = flag.Int64("seed", 1, "random seed")
		budget   = flag.Int64("budget", 100_000_000, "intermediate-work budget (0 = unlimited)")
		repeat   = flag.Int("repeat", 1, "execute the prepared query this many times on one session (run 2+ go warm)")
		all      = flag.Bool("all", false, "run every engine and compare")
		explain  = flag.Bool("explain", false, "print the chosen engine's plan DAG and exit")
		phases   = flag.Bool("phases", false, "print the run record: one line per runtime step, in execution order")
	)
	flag.Parse()

	q, err := parseQueryArg(*queryStr)
	exitOn(err)

	var edges *adj.Relation
	if *snap != "" {
		edges, err = adj.LoadGraph(*snap)
		exitOn(err)
		fmt.Printf("loaded %s: %d edges\n", *snap, edges.Len())
	} else {
		edges = adj.GenerateGraph(*dataset, *scale)
		fmt.Printf("dataset %s@%g: %d edges\n", *dataset, *scale, edges.Len())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sess, err := adj.Open(adj.Options{Workers: *workers, Samples: *samples, Seed: *seed, Budget: *budget})
	exitOn(err)
	defer sess.Close()
	exitOn(sess.Register("edges", edges))

	if *explain {
		pq, err := sess.PrepareGraph(*engine, q, "edges")
		exitOn(err)
		fmt.Println(pq.Explain())
		return
	}

	names := []string{*engine}
	if *all {
		names = adj.AllEngineNames()
	}
	for _, name := range names {
		pq, err := sess.PrepareGraph(name, q, "edges")
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			continue
		}
		for exec := 0; exec < *repeat; exec++ {
			t0 := time.Now()
			res, err := pq.Exec(ctx, adj.CountOnly())
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				break
			}
			rep := res.Report()
			fmt.Println(rep.String())
			if *repeat > 1 {
				fmt.Printf("  exec %d: wall=%.3fs blocks=%d builds=%d hits=%d\n",
					exec+1, time.Since(t0).Seconds(), rep.CacheBlocks, rep.TrieBuilds, rep.TrieCacheHits)
			}
			if exec == 0 {
				if rep.Plan != "" {
					fmt.Printf("  plan: %s (prepared in %.3fs)\n", rep.Plan, pq.PlanSeconds())
				}
				if *phases && rep.Metrics != nil {
					fmt.Print(rep.Metrics.String())
				}
			}
		}
	}
	if *repeat > 1 {
		st := sess.TrieStoreStats()
		fmt.Printf("trie store: %d blocks, %d bytes (budget %d), %d hits, %d evictions\n",
			st.Blocks, st.Bytes, st.Budget, st.Hits, st.Evictions)
	}
}

func parseQueryArg(s string) (adj.Query, error) {
	if !strings.ContainsAny(s, "(") {
		for _, q := range adj.CatalogQueries() {
			if q.Name == s {
				return q, nil
			}
		}
		return adj.Query{}, fmt.Errorf("unknown catalog query %q (Q1..Q11) — or pass full query text", s)
	}
	return adj.ParseQuery(s)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "adj:", err)
		os.Exit(1)
	}
}
