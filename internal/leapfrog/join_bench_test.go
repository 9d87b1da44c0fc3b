package leapfrog

import (
	"fmt"
	"testing"

	"adj/internal/dataset"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// cubeOf returns the fragments one HCube cube receives: the rows of every
// relation whose hash coordinates on the relation's own attributes match
// the cube's.
func cubeOf(rels []*relation.Relation, s hcube.Shares, cube int) []*relation.Relation {
	coords := s.CoordsOf(cube)
	out := make([]*relation.Relation, len(rels))
	for i, r := range rels {
		frag := relation.New(r.Name, r.Attrs...)
		relPos := s.RelPositions(r.Attrs)
		cols := r.Columns()
	rows:
		for x := 0; x < r.Len(); x++ {
			for j, p := range relPos {
				if relation.HashValue(cols[j][x], s.P[p]) != coords[p] {
					continue rows
				}
			}
			frag.AppendTuple(r.Tuple(x))
		}
		out[i] = frag
	}
	return out
}

// BenchmarkJoinTriangle times leapfrog.Join on the serve-warm shape — the
// triangle over the LJ@2 power-law graph under ADJ's order [b c a] —
// counting and emitting: the whole graph on one node, and cube 0 of the two 4-cube
// partitions that tie on communication, [2 2 1] (the leading attributes
// split: what hcube.Optimize picks) and [1 2 2] (the lexicographically
// smallest vector, what it picked before). ns/result is the per-layer
// metric the benchmark reports as leapfrog.{count,emit}_ns_per_result.
func BenchmarkJoinTriangle(b *testing.B) {
	q := hypergraph.Q1()
	rels := q.BindGraph(dataset.Generate(dataset.SpecOf("LJ", 2)))
	order := []string{"b", "c", "a"}
	type input struct {
		name string
		rels []*relation.Relation
	}
	inputs := []input{{"whole", rels}}
	for _, p := range [][]int{{2, 2, 1}, {1, 2, 2}} {
		s := hcube.Shares{Attrs: order, P: p}
		inputs = append(inputs, input{fmt.Sprintf("cube0-of-%d%d%d", p[0], p[1], p[2]), cubeOf(rels, s, 0)})
	}
	for _, in := range inputs {
		tries := BuildTries(in.rels, order)
		b.Run(in.name+"/count", func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				st, _ = Join(tries, order, Options{})
			}
			reportPerResult(b, st)
		})
		b.Run(in.name+"/emit", func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				out := relation.NewWithCapacity("out", int(st.Results), order...)
				st, _ = Join(tries, order, Options{Sink: relation.NewColumnWriter(out)})
			}
			reportPerResult(b, st)
		})
	}
}

func reportPerResult(b *testing.B, st Stats) {
	if st.Results == 0 {
		b.Fatal("no results: the benchmark times nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Results), "ns/result")
	b.ReportMetric(float64(st.Results), "results")
	b.ReportMetric(float64(st.LevelTuples[0]+st.LevelTuples[1]), "bindings")
}
