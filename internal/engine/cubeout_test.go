package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"adj/internal/cluster"
	"adj/internal/hypergraph"
	"adj/internal/plan"
	"adj/internal/relation"
	"adj/internal/testutil"
)

// cubeOp returns the ID of pp's first LeapfrogCube op.
func cubeOp(t *testing.T, pp *PreparedPlan) int {
	t.Helper()
	for _, op := range pp.Program.Ops {
		if op.Kind == plan.LeapfrogCube {
			return op.ID
		}
	}
	t.Fatalf("%s plan %q has no LeapfrogCube op", pp.Engine, pp.Program.Label)
	return -1
}

// The remembered per-worker counts size the output and never decide it.
// Every cube engine × Q1/Q2/Q5, and Hybrid on a triangle with a tail (its
// core kept on the workers, folded per worker), on a resident cluster under
// one prepared plan: the first execution (nothing remembered), the second
// (the first's counts), and executions under counts made wrong on purpose —
// half, double, zero, one worker short and the next one long, a worker
// missing, a worker too many — return the oracle's rows, and the same rows
// in the same worker order every time, parallel and Sequential. After each
// execution the plan remembers the true counts again.
func TestCubeOutputHintNeverChangesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	edges := testutil.RandEdges(rng, "E", 260, 22)
	type run struct {
		engine string
		q      hypergraph.Query
		rels   []*relation.Relation
		oracle *relation.Relation
	}
	var runs []run
	for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q2(), hypergraph.Q5()} {
		rels := q.BindGraph(edges)
		oracle := relation.NaiveJoin(rels, q.Attrs())
		for _, name := range []string{"ADJ", "ADJ(comm-first)", "HCubeJ", "HCubeJ+Cache", "Hybrid"} {
			runs = append(runs, run{name, q, rels, oracle})
		}
	}
	// The triangle with a selective tail, where Hybrid splits; too large for
	// the naive join, so the oracle is the binary engine's rows.
	tailQ, tailRels := hybridWorkload(1000)
	cfg := smallCfg(4)
	cfg.CollectOutput = true
	binary, err := Run("SparkSQL", tailQ, tailRels, cfg)
	if err != nil || binary.Failed {
		t.Fatalf("SparkSQL on the tail query: err %v, failed %q", err, binary.FailReason)
	}
	runs = append(runs, run{"Hybrid", tailQ, tailRels, binary.Output.ProjectMulti(tailQ.Attrs()...).Sort()})
	wrong := []struct {
		name string
		of   func(truth []int64) []int64
	}{
		{"half", func(h []int64) []int64 { return mapRows(h, func(_ int, n int64) int64 { return n / 2 }) }},
		{"double", func(h []int64) []int64 { return mapRows(h, func(_ int, n int64) int64 { return 2*n + 3 }) }},
		{"zero", func(h []int64) []int64 { return mapRows(h, func(_ int, n int64) int64 { return 0 }) }},
		{"short-then-long", func(h []int64) []int64 {
			return mapRows(h, func(w int, n int64) int64 { return n + int64(5*(w%2*2-1)) })
		}},
		{"worker-missing", func(h []int64) []int64 { return h[1:] }},
		{"worker-extra", func(h []int64) []int64 { return append(mapRows(h, func(_ int, n int64) int64 { return n }), 7) }},
	}
	for _, r := range runs {
		rels, oracle := r.rels, r.oracle
		if oracle.Len() == 0 {
			t.Fatalf("%s: no results on the test graph, the case tests nothing", r.q.Name)
		}
		var first *relation.Relation // the first execution's rows, in its order
		for _, sequential := range []bool{false, true} {
			name := fmt.Sprintf("%s/%s/seq=%v", r.engine, r.q.Name, sequential)
			c := cluster.New(cluster.Config{N: 4, Sequential: sequential})
			cfg := Config{Samples: 300, Seed: 7, Ctx: context.Background()}
			cfg.Cluster, cfg.Sequential, cfg.CollectOutput = c, sequential, true
			pp, err := Prepare(r.engine, r.q, rels, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Prepared = pp
			op := cubeOp(t, pp)
			// A plan that joins the cubes' output on (Hybrid's tail) emits
			// in an order only Sequential fixes; compare those sorted.
			ordered := pp.Program.Ops[op].StoreAs == ""
			if ordered == (r.q.Name == tailQ.Name) {
				t.Fatalf("%s: cube output kept on the workers = %v: the tail case must, the others must not", name, !ordered)
			}
			exec := func(step string) {
				rep, err := Run(r.engine, r.q, rels, cfg)
				if err != nil || rep.Failed {
					t.Fatalf("%s %s: err %v, failed %q", name, step, err, rep.FailReason)
				}
				got := rep.Output
				if !ordered {
					got = got.Clone().Sort()
				}
				if first == nil {
					first = got
					if sorted := got.ProjectMulti(r.q.Attrs()...).Sort(); !sorted.Equal(oracle.Renamed(sorted.Name)) {
						t.Fatalf("%s %s: %d rows, oracle has %d (sorted rows differ)", name, step, got.Len(), oracle.Len())
					}
				}
				if !got.Equal(first) {
					t.Fatalf("%s %s: %d rows, first execution %d (or another order)", name, step, got.Len(), first.Len())
				}
				var sum int64
				for _, n := range pp.cubeRowsOf(op) {
					sum += n
				}
				if ordered && sum != rep.Results {
					t.Fatalf("%s %s: the plan remembers %d rows, the execution produced %d", name, step, sum, rep.Results)
				}
			}
			if pp.cubeRowsOf(op) != nil {
				t.Fatalf("%s: a fresh plan already remembers counts", name)
			}
			exec("first")
			truth := pp.cubeRowsOf(op)
			if len(truth) != 4 {
				t.Fatalf("%s: remembered counts for %d workers, want 4", name, len(truth))
			}
			exec("hinted")
			for _, w := range wrong {
				pp.rememberCubeRows(op, w.of(truth))
				exec("hint " + w.name)
			}
			c.Close()
		}
	}
}

// mapRows returns rows with every count replaced by f(worker, count).
func mapRows(rows []int64, f func(w int, n int64) int64) []int64 {
	out := make([]int64, len(rows))
	for w, n := range rows {
		out[w] = max(0, f(w, n))
	}
	return out
}

// cubeWindows.fold by itself: cubes that fill their windows are not moved (the
// result aliases the hinted storage), a cube after a short one moves left, and
// one cube outgrowing its window sends the fold to fresh columns — the rows
// are the concatenation in every case.
func TestCubeWindowsFold(t *testing.T) {
	order := []string{"a", "b"}
	for _, c := range []struct {
		name    string
		hint    []int64
		actual  []int
		inPlace bool
	}{
		{"exact", []int64{3, 0, 4, 2}, []int{3, 0, 4, 2}, true},
		{"short", []int64{3, 2, 4, 2}, []int{1, 2, 0, 2}, true},
		{"long", []int64{3, 2, 4}, []int{3, 3, 4}, false},
		{"short-and-long", []int64{3, 2, 4}, []int{0, 3, 4}, false},
		{"no-hint", []int64{0, 0, 0}, []int{2, 0, 5}, false},
		{"nothing", []int64{0, 0}, []int{0, 0}, true},
	} {
		cw := newCubeWindows(order, c.hint)
		want := relation.New("out", order...)
		outs := make([]*relation.Relation, len(c.actual))
		v := relation.Value(0)
		for k, n := range c.actual {
			outs[k] = cw.window(k)
			w := relation.NewColumnWriter(outs[k])
			for i := 0; i < n; i++ {
				v++
				w.BeginRun([]relation.Value{v})
				w.AppendRun([]relation.Value{-v})
				want.Append(v, -v)
			}
		}
		got := cw.fold("out", outs)
		if !got.Equal(want) {
			t.Fatalf("%s: folded %v, want %v", c.name, got, want)
		}
		aliases := got.Len() > 0 && cap(cw.cols[0]) > 0 && &got.Column(0)[0] == &cw.cols[0][:1][0]
		if got.Len() > 0 && aliases != c.inPlace {
			t.Fatalf("%s: result in the hinted storage = %v, want %v", c.name, aliases, c.inPlace)
		}
	}
}

// BenchmarkCubeOutputFold times the cube join's output path by itself — four
// cubes of 32 k rows each written run by run (a two-value prefix, two values a
// run: the serve-warm triangle's shape) through their ColumnWriters, then the
// fold — with the true counts as the hint, where every row is written once
// into columns allocated once, and with no hint, where each cube grows its
// own columns from empty and the fold copies them all.
func BenchmarkCubeOutputFold(b *testing.B) {
	const cubes, perCube, run = 4, 32_000, 2
	order := []string{"a", "b", "c"}
	vals := make([]relation.Value, run)
	truth := make([]int64, cubes)
	for k := range truth {
		truth[k] = perCube
	}
	for _, mode := range []struct {
		name string
		hint []int64
	}{{"hinted", truth}, {"hint-less", make([]int64, cubes)}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			outs := make([]*relation.Relation, cubes)
			for i := 0; i < b.N; i++ {
				cw := newCubeWindows(order, mode.hint)
				for k := range outs {
					outs[k] = cw.window(k)
					w := relation.NewColumnWriter(outs[k])
					for r := 0; r < perCube/run; r++ {
						w.BeginRun([]relation.Value{relation.Value(k), relation.Value(r)})
						w.AppendRun(vals)
					}
				}
				if got := cw.fold("out", outs); got.Len() != cubes*perCube {
					b.Fatalf("folded %d rows, want %d", got.Len(), cubes*perCube)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cubes*perCube), "ns/row")
		})
	}
}
