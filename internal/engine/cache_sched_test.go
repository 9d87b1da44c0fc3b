package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"adj/internal/cluster"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/testutil"
)

// invariantReport extracts the scheduling-invariant slice of a Report (the
// determinism contract in README.md): result count, failure, tuples
// shuffled, logical messages, block-cache structure and the sorted
// materialized output. BytesShuffled and output row order are not in it —
// multi-round engines re-encode intermediates in chunk-arrival order, so
// those two are reproducible only under Config.Sequential.
func invariantReport(rep Report) string {
	out := ""
	if rep.Output != nil {
		out = rep.Output.Clone().SortDedup().String()
	}
	return fmt.Sprintf("results=%d failed=%v(%s) tuples=%d msgs=%d blocks=%d out=%s",
		rep.Results, rep.Failed, rep.FailReason,
		rep.TuplesShuffled, rep.Messages, rep.CacheBlocks, out)
}

// TestCacheSchedulerEquivalenceAllEngines pins the determinism contract
// across all six engines: parallel scheduling (a goroutine per worker, 2N
// exchange goroutines) agrees with Config.Sequential on every
// scheduling-invariant field, and two Sequential runs additionally agree on
// BytesShuffled, modeled Communication, StreamChunks and output row order.
func TestCacheSchedulerEquivalenceAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for iter := 0; iter < 3; iter++ {
		edges := testutil.RandEdges(rng, "E", 300+200*iter, int64(25+5*iter))
		for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q2()} {
			rels := q.BindGraph(edges)
			var counts []int64 // every engine's count, which must agree
			for name, run := range Engines() {
				at := fmt.Sprintf("iter=%d %s/%s", iter, name, q.Name)
				exec := func(sequential bool) Report {
					cfg := smallCfg(3)
					cfg.Sequential = sequential
					cfg.CollectOutput = true
					rep, err := run(q, rels, cfg)
					if err != nil {
						t.Fatalf("%s seq=%v: %v", at, sequential, err)
					}
					if int64(rep.Output.Len()) != rep.Results {
						t.Fatalf("%s seq=%v: output %d tuples, results=%d", at, sequential, rep.Output.Len(), rep.Results)
					}
					// A worker's one cube asks for each of its blocks once, so
					// a cold run builds every block and hits none.
					if rep.TrieBuilds != rep.CacheBlocks || rep.TrieCacheHits != 0 {
						t.Fatalf("%s seq=%v: %d blocks, %d builds, %d hits", at, sequential,
							rep.CacheBlocks, rep.TrieBuilds, rep.TrieCacheHits)
					}
					switch name {
					case "ADJ", "HCubeJ", "HCubeJ+Cache":
						// Batched emission engaged, one value per result.
						if (rep.Results > 0 && rep.EmittedRuns == 0) || rep.EmittedValues != rep.Results {
							t.Fatalf("%s seq=%v: %d results, %d emitted runs, %d emitted values",
								at, sequential, rep.Results, rep.EmittedRuns, rep.EmittedValues)
						}
					}
					return rep
				}
				seq, seqAgain, par := exec(true), exec(true), exec(false)
				if want, got := invariantReport(seq), invariantReport(par); got != want {
					t.Fatalf("%s: parallel differs from sequential:\n  seq: %s\n  par: %s", at, want, got)
				}
				if invariantReport(seq) != invariantReport(seqAgain) ||
					seq.BytesShuffled != seqAgain.BytesShuffled || !seq.Output.Equal(seqAgain.Output) ||
					seq.Communication != seqAgain.Communication || seq.StreamChunks != seqAgain.StreamChunks {
					t.Fatalf("%s: two sequential runs differ (bytes %d vs %d, comm %v vs %v, chunks %d vs %d, same row order: %v)",
						at, seq.BytesShuffled, seqAgain.BytesShuffled, seq.Communication, seqAgain.Communication,
						seq.StreamChunks, seqAgain.StreamChunks, seq.Output.Equal(seqAgain.Output))
				}
				counts = append(counts, seq.Results)
			}
			for _, c := range counts[1:] {
				if c != counts[0] {
					t.Fatalf("iter=%d %s: engines disagree: %v", iter, q.Name, counts)
				}
			}
		}
	}
}

// Cached tries must equal rebuilt tries: for random instances and every
// shuffle kind, the tries each worker's cube assembles lazily from its block
// cache must enumerate exactly the tuples of the other kinds' cubes (Push
// and Pull rebuild from raw tuple blocks, Merge merges pre-built tries —
// three independent construction paths, one answer).
func TestCachedVsRebuiltTries(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for iter := 0; iter < 10; iter++ {
		q, rels := testutil.RandQueryInstance(rng, 3, 4, 40, 8)
		order := q.Attrs()
		info := hcube.InfoOf(rels)
		n := 2 + rng.Intn(3)
		shares, err := hcube.Optimize(info, hcube.Config{Attrs: order, NumServers: n})
		if err != nil {
			t.Fatal(err)
		}
		snaps := make(map[hcube.Kind]map[string]string)
		for _, kind := range []hcube.Kind{hcube.Push, hcube.Pull, hcube.Merge} {
			c := cluster.New(cluster.Config{N: n, Sequential: true})
			c.LoadDatabase(rels)
			if err := hcube.Run(c, "shuffle", hcube.Plan{
				Shares: shares, Rels: info, Kind: kind, TrieOrder: order,
			}); err != nil {
				t.Fatal(err)
			}
			snap := make(map[string]string)
			for _, w := range c.Workers {
				for i, tr := range cubeTries(w, info, order) {
					snap[fmt.Sprintf("%s/%d", info[i].Name, w.ID)] = tr.ToRelation("x").String()
				}
				// The cache invariant: every deposited block built exactly
				// once, all of them having been requested above.
				st := w.Blocks.Stats()
				if st.Builds != st.Blocks {
					t.Fatalf("kind=%v worker=%d: %d builds for %d blocks", kind, w.ID, st.Builds, st.Blocks)
				}
			}
			snaps[kind] = snap
			c.Close()
		}
		for _, kind := range []hcube.Kind{hcube.Pull, hcube.Merge} {
			if len(snaps[kind]) != len(snaps[hcube.Push]) {
				t.Fatalf("iter=%d: %v has %d cube tries, push has %d",
					iter, kind, len(snaps[kind]), len(snaps[hcube.Push]))
			}
			for k, v := range snaps[hcube.Push] {
				if snaps[kind][k] != v {
					t.Fatalf("iter=%d: cube trie %s differs between push and %v:\n  push: %s\n  %v: %s",
						iter, k, kind, v, kind, snaps[kind][k])
				}
			}
		}
	}
}
