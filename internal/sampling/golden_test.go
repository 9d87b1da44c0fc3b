package sampling

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current sampler")

// goldenGraphs are the two seeded graphs the golden estimates run over: a
// small one whose roots stay below the size that gets a directory, and a
// larger one with cubed vertex ids, whose roots have directories with
// crowded buckets.
func goldenGraphs() []*relation.Relation {
	return []*relation.Relation{
		testutil.RandEdges(rand.New(rand.NewSource(1)), "E", 300, 30),
		testutil.CubedEdges(rand.New(rand.NewSource(2)), "E", 2500, 250),
	}
}

// TestEstimatesGolden pins every reproducible field of Estimate for Q1–Q11
// over goldenGraphs in three orders, budget-truncated and depth-bounded,
// and unbudgeted in the canonical order. A sampler change that moves any
// count, tally or truncation flag re-prices plans; it shows here as a
// diff. Regenerate with
// go test ./internal/sampling/ -run TestEstimatesGolden -update.
func TestEstimatesGolden(t *testing.T) {
	var out bytes.Buffer
	var truncated int
	for gi, g := range goldenGraphs() {
		for _, q := range hypergraph.AllQueries() {
			rels := q.BindGraph(g)
			attrs := q.Attrs()
			n := len(attrs)
			rev := slices.Clone(attrs)
			slices.Reverse(rev)
			rot := append(slices.Clone(attrs[1:]), attrs[0])
			for oi, order := range [][]string{attrs, rev, rot} {
				for _, cfg := range []Config{
					{Samples: 200, Seed: 3},
					{Samples: 200, Seed: 3, PerSampleBudget: 40},
					{Samples: 200, Seed: 3, MaxDepth: 2},
					{Samples: 200, Seed: 3, PerSampleBudget: 40, MaxDepth: n - 1},
				} {
					if oi > 0 && cfg.PerSampleBudget == 0 && cfg.MaxDepth == 0 {
						// Unbudgeted only in the canonical order: the
						// others enumerate cross products (Q8 from a leaf).
						continue
					}
					est, err := EstimateCardinality(rels, order, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if est.Truncated {
						truncated++
					}
					fmt.Fprintf(&out, "%s g%d order=%s budget=%d depth=%d: card=%v levels=%v valA=%d work=%d ops=%v samples=%d truncated=%v\n",
						q.Name, gi, strings.Join(order, ""), cfg.PerSampleBudget, cfg.MaxDepth,
						est.Cardinality, est.LevelCounts, est.ValA, est.WorkOps, est.LevelOps, est.Samples, est.Truncated)
				}
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no golden estimate truncated: the budgets no longer cover the truncated case")
	}
	testutil.Golden(t, filepath.Join("testdata", "estimates.golden"), out.Bytes(), *update)
}
