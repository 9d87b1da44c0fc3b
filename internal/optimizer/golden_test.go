package optimizer

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current planner")

// TestPlansGolden pins what CoOptimize decides — attribute order,
// traversal, pre-computed bags, the cost estimate — and the sampling work
// it spent, for Q1–Q11 over three seeded graphs at N ∈ {1, 4, 7} and a
// subset budget loose enough to finish and tight enough to truncate. A
// planner or sampler change that flips a plan, moves a cost or changes
// what is sampled shows here as a diff. Regenerate with
// go test ./internal/optimizer/ -run TestPlansGolden -update.
func TestPlansGolden(t *testing.T) {
	var graphs []*relation.Relation
	for seed := int64(1); seed <= 2; seed++ {
		graphs = append(graphs, testutil.RandEdges(rand.New(rand.NewSource(seed)), "E", 300*int(seed), 30*seed))
	}
	// A third graph with cubed vertex ids: its roots' directories have
	// crowded buckets.
	graphs = append(graphs, testutil.CubedEdges(rand.New(rand.NewSource(3)), "E", 2000, 200))
	var out bytes.Buffer
	for _, q := range hypergraph.AllQueries() {
		for gi, g := range graphs {
			base := newOpt(t, q, q.BindGraph(g), 1)
			for _, n := range []int{1, 4, 7} {
				for _, budget := range []int64{5000, 30} {
					o := freshPass(base)
					o.opts.Params = testParams(n)
					o.subsetBudget = budget
					p, err := o.CoOptimize()
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&out, "%s g%d N=%d budget=%d: order=%s traversal=%v precompute=%v est={%v %v %v} sampleOps=%d\n",
						q.Name, gi, n, budget, strings.Join(p.AttrOrder, ""), p.Traversal, p.Precompute,
						p.Est.PreCompute, p.Est.Communication, p.Est.Computation, o.SampleOps)
				}
			}
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "plans.golden"), out.Bytes(), *update)
}
