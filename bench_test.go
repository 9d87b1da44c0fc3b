package adj_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§VII). Each BenchmarkFigXX / BenchmarkTableXX runs the
// corresponding experiment at a laptop scale and reports the headline
// numbers as custom metrics; `cmd/experiments` prints the full rows.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkFig12 -benchtime=1x
//
// Scale note: ADJBENCH_SCALE (default 0.05) multiplies dataset sizes;
// see EXPERIMENTS.md for paper-vs-measured shape notes.

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"adj"
	"adj/internal/cluster"
	"adj/internal/costmodel"
	"adj/internal/engine"
	"adj/internal/experiments"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/leapfrog"
	"adj/internal/optimizer"
	"adj/internal/relation"
	"adj/internal/trie"
)

func benchScale() float64 {
	if s := os.Getenv("ADJBENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

func benchCfg() experiments.Config {
	return experiments.Config{
		Scale:   benchScale(),
		Workers: 8,
		Samples: 300,
		Seed:    1,
		Budget:  20_000_000,
		Ctx:     context.Background(),
	}
}

// runExperiment wraps one experiment as a benchmark body.
func runExperiment(b *testing.B, fn func(experiments.Config) (experiments.Result, error)) experiments.Result {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = fn(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkTable01_Datasets(b *testing.B) {
	res := runExperiment(b, experiments.Table1)
	b.ReportMetric(res.Rows[5].Values["Edges"], "OK-edges")
}

func BenchmarkFig01a_OneRoundVsMultiRound(b *testing.B) {
	res := runExperiment(b, experiments.Fig1a)
	r := res.Rows[0].Values
	if r["OneRound"] > 0 {
		b.ReportMetric(r["MultiRound"]/r["OneRound"], "multi/one-shuffle-ratio")
	}
}

func BenchmarkFig01b_CommFirstVsCoOpt(b *testing.B) {
	res := runExperiment(b, experiments.Fig1b)
	r := res.Rows[0].Values
	co := r["CO-Pre+Comm"] + r["CO-Comp"]
	cf := r["CF-Comm"] + r["CF-Comp"]
	if co > 0 {
		b.ReportMetric(cf/co, "commfirst/coopt-cost-ratio")
	}
}

func BenchmarkFig06_IntermediateTuples(b *testing.B) {
	res := runExperiment(b, experiments.Fig6)
	// Average share of the last two traversed nodes.
	var sum float64
	var n int
	for _, row := range res.Rows {
		if row.Values == nil {
			continue
		}
		sum += row.Values["nth"] + row.Values["(n-1)th"]
		n++
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "last2-share")
	}
}

func BenchmarkFig08_AttributeOrderPruning(b *testing.B) {
	res := runExperiment(b, experiments.Fig8)
	var ratioSum float64
	var n int
	for _, row := range res.Rows {
		if row.Values == nil || row.Values["Valid-Max"] == 0 {
			continue
		}
		ratioSum += row.Values["Invalid-Max"] / row.Values["Valid-Max"]
		n++
	}
	if n > 0 {
		b.ReportMetric(ratioSum/float64(n), "invalidmax/validmax")
	}
}

func BenchmarkFig09_HCubeImplementations(b *testing.B) {
	res := runExperiment(b, experiments.Fig9)
	var push, merge float64
	for _, row := range res.Rows {
		push += row.Values["Push-Comm"]
		merge += row.Values["Merge-Comm"]
	}
	if merge > 0 {
		b.ReportMetric(push/merge, "push/merge-comm-ratio")
	}
}

func BenchmarkFig10_SamplingAccuracy(b *testing.B) {
	res := runExperiment(b, experiments.Fig10)
	var worst float64 = 1
	for _, row := range res.Rows {
		if d, ok := row.Values["D@10000"]; ok && d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst, "worst-D@10000")
}

func BenchmarkFig11_Scalability(b *testing.B) {
	res := runExperiment(b, experiments.Fig11)
	var best float64
	for _, row := range res.Rows {
		if v, ok := row.Values["n=28"]; ok && v > best {
			best = v
		}
	}
	b.ReportMetric(best, "best-speedup@28")
}

func BenchmarkFig12ac_VaryingDataset(b *testing.B) {
	res := runExperiment(b, experiments.Fig12Datasets)
	adjWins := 0
	total := 0
	for _, row := range res.Rows {
		a, ok := row.Values["ADJ"]
		if !ok {
			continue
		}
		total++
		best := true
		for name, v := range row.Values {
			if name != "ADJ" && v < a {
				best = false
			}
		}
		if best {
			adjWins++
		}
	}
	if total > 0 {
		b.ReportMetric(float64(adjWins)/float64(total), "adj-win-rate")
	}
}

func BenchmarkFig12df_VaryingQuery(b *testing.B) {
	res := runExperiment(b, experiments.Fig12Queries)
	completions := 0
	for _, row := range res.Rows {
		if _, ok := row.Values["ADJ"]; ok {
			completions++
		}
	}
	b.ReportMetric(float64(completions)/float64(len(res.Rows)), "adj-completion-rate")
}

func benchTable(b *testing.B, fn func(experiments.Config) (experiments.Result, error)) {
	res := runExperiment(b, fn)
	var coTotal, cfTotal float64
	for _, row := range res.Rows {
		coTotal += row.Values["CO-Total"]
		cfTotal += row.Values["CF-Total"]
	}
	if coTotal > 0 {
		b.ReportMetric(cfTotal/coTotal, "commfirst/coopt-total-ratio")
	}
}

func BenchmarkTable02_CoOptVsCommFirst_AS(b *testing.B) { benchTable(b, experiments.Table2) }
func BenchmarkTable03_CoOptVsCommFirst_LJ(b *testing.B) { benchTable(b, experiments.Table3) }
func BenchmarkTable04_CoOptVsCommFirst_OK(b *testing.B) { benchTable(b, experiments.Table4) }

// --- Ablation benchmarks (DESIGN.md "Design choices to ablate") ---

// BenchmarkAblationOrders compares selecting an attribute order from the
// pruned valid space vs from all n! orders (planner cost, not join cost).
func BenchmarkAblationOrders(b *testing.B) {
	edges := adj.GenerateGraph("LJ", benchScale())
	q := hypergraph.Get("Q5")
	rels := q.BindGraph(edges)
	o, err := optimizer.New(q, rels, optimizer.Options{
		Params: costmodel.DefaultParams(8), Samples: 200, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	valid := o.Decomp.ValidAttrOrders()
	b.Run("valid-sampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o.ChooseOrder(valid)
		}
	})
	b.Run("all-sketch", func(b *testing.B) {
		all := allOrders(q)
		for i := 0; i < b.N; i++ {
			o.ChooseOrderSketch(all)
		}
	})
}

func allOrders(q hypergraph.Query) [][]string {
	attrs := q.Attrs()
	var out [][]string
	var rec func(cur []string, rest []string)
	rec = func(cur, rest []string) {
		if len(rest) == 0 {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, attrs)
	return out
}

// BenchmarkAblationOptimizer compares Alg. 2's greedy search against the
// exhaustive plan search over (C, traversal) pairs.
func BenchmarkAblationOptimizer(b *testing.B) {
	edges := adj.GenerateGraph("LJ", benchScale())
	q := hypergraph.Get("Q6")
	rels := q.BindGraph(edges)
	newOpt := func() *optimizer.Optimizer {
		o, err := optimizer.New(q, rels, optimizer.Options{
			Params: costmodel.DefaultParams(8), Samples: 200, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return o
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := newOpt().CoOptimize(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := newOpt().ExhaustivePlan(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEstimator compares sampling-based and sketch-based
// cardinality estimates against the exact count (reported as D ratios).
func BenchmarkAblationEstimator(b *testing.B) {
	edges := adj.GenerateGraph("LJ", benchScale())
	q := hypergraph.Get("Q5")
	rels := q.BindGraph(edges)
	order := q.Attrs()
	st, err := leapfrog.JoinRelations(rels, order, leapfrog.Options{})
	if err != nil {
		b.Fatal(err)
	}
	exact := st.Results
	o, err := optimizer.New(q, rels, optimizer.Options{
		Params: costmodel.DefaultParams(8), Samples: 2000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var sampled, sketch float64
	for i := 0; i < b.N; i++ {
		sampled = o.SubsetSize(order)
		sketch = o.SketchPrefixEstimate(order)
	}
	if exact > 0 {
		b.ReportMetric(ratioD(sampled, float64(exact)), "D-sampling")
		b.ReportMetric(ratioD(sketch, float64(exact)), "D-sketch")
	}
}

func ratioD(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 1e9
	}
	if a > b {
		return a / b
	}
	return b / a
}

// BenchmarkAblationShuffle isolates Push vs Pull vs Merge: one HCube
// shuffle of Q2 over 8 loaded workers plus the receiver-side tries of each
// worker's cube, as Fig. 9 measures them.
func BenchmarkAblationShuffle(b *testing.B) {
	edges := adj.GenerateGraph("AS", benchScale())
	q := hypergraph.Get("Q2")
	rels := q.BindGraph(edges)
	order := q.Attrs()
	infos := hcube.InfoOf(rels)
	shares, err := hcube.Optimize(infos, hcube.Config{Attrs: order, NumServers: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []hcube.Kind{hcube.Push, hcube.Pull, hcube.Merge} {
		b.Run(kind.String(), func(b *testing.B) {
			c := cluster.New(cluster.Config{N: 8})
			defer c.Close()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.ResetRun()
				c.LoadDatabase(rels)
				b.StartTimer()
				if err := hcube.Run(c, "shuffle", hcube.Plan{
					Shares: shares, Rels: infos, Kind: kind, TrieOrder: order,
				}); err != nil {
					b.Fatal(err)
				}
				err := c.Parallel("tries", func(w *cluster.Worker) error {
					for _, ri := range infos {
						w.Blocks.Trie(ri.Name)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the core kernels ---

func BenchmarkLeapfrogTriangleLJ(b *testing.B) {
	edges := adj.GenerateGraph("LJ", benchScale())
	q := hypergraph.Get("Q1")
	rels := q.BindGraph(edges)
	order := q.Attrs()
	tries := leapfrog.BuildTries(rels, order)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leapfrog.Join(tries, order, leapfrog.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrieBuild(b *testing.B) {
	edges := adj.GenerateGraph("LJ", benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.Build(edges, []string{"src", "dst"})
	}
}

func BenchmarkTrieCodec(b *testing.B) {
	tr := trie.Build(adj.GenerateGraph("AS", benchScale()), []string{"src", "dst"})
	buf := trie.AppendEncode(nil, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trie.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := relation.New("R", "a", "b")
	s := relation.New("S", "b", "c")
	for i := 0; i < 20000; i++ {
		r.Append(rng.Int63n(5000), rng.Int63n(5000))
		s.Append(rng.Int63n(5000), rng.Int63n(5000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relation.HashJoin(r, s)
	}
}

func BenchmarkSamplingEstimate(b *testing.B) {
	edges := adj.GenerateGraph("LJ", benchScale())
	q := hypergraph.Get("Q4")
	rels := q.BindGraph(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := engine.Config{NumServers: 8, Samples: 500, Seed: int64(i), Ctx: context.Background()}
		if _, err := engine.Prepare("ADJ", q, rels, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
