package relation_test

import (
	"math/rand"
	"testing"

	"adj/internal/dataset"
	"adj/internal/relation"
)

// The join kernels' micro-benchmarks run on the two shapes the repository
// already times them on, so a number here can be set beside a number there:
//
//   - calibrate: costmodel.CalibrateJoinRate's join, a(x,y) ⋈ b(y,z) over
//     50 000 random rows a side with y drawn from 12 500 values;
//   - lj0.3-worker: benchmark/probes.go's relation.hashjoin_ns_per_tuple
//     join, one of four workers' share of the LJ analogue at scale 0.3 —
//     L(a,b) hash-partitioned on b against R(b,c) hash-partitioned on b, so
//     every key reaches the index pre-selected by HashValue.
//
// Run with -benchmem: allocations per call are the regression these guard.
type joinShape struct {
	name string
	l, r *relation.Relation
	on   string
}

func joinShapes() []joinShape {
	rng := rand.New(rand.NewSource(2))
	const n = 50000
	a := relation.NewWithCapacity("a", n, "x", "y")
	b := relation.NewWithCapacity("b", n, "y", "z")
	for i := 0; i < n; i++ {
		a.Append(rng.Int63n(n), rng.Int63n(n/4))
		b.Append(rng.Int63n(n/4), rng.Int63n(n))
	}
	spec := dataset.SpecOf("LJ", 0.3)
	spec.Seed = 1
	graph := dataset.Generate(spec)
	l := graph.PartitionBy([]int{1}, 4)[0].Renamed("L")
	l.Attrs = []string{"a", "b"}
	r := graph.PartitionBy([]int{0}, 4)[0].Renamed("R")
	r.Attrs = []string{"b", "c"}
	return []joinShape{{"calibrate", a, b, "y"}, {"lj0.3-worker", l, r, "b"}}
}

var benchRows int

func BenchmarkHashJoin(b *testing.B) {
	for _, sh := range joinShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRows = relation.HashJoin(sh.l, sh.r).Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.l.Len()+sh.r.Len()+benchRows), "ns/tuple")
		})
	}
}

func BenchmarkSemijoin(b *testing.B) {
	for _, sh := range joinShapes() {
		on := []string{sh.on}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRows = sh.l.Semijoin(sh.r, on).Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.l.Len()+sh.r.Len()), "ns/tuple")
		})
	}
}

// BenchmarkIndexBuild times the build half of every join kernel alone: the
// index over the build side's key column, on the shapes of joinShapes.
func BenchmarkIndexBuild(b *testing.B) {
	for _, sh := range joinShapes() {
		key := [][]relation.Value{sh.r.Column(sh.r.AttrIndex(sh.on))}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRows = relation.NewIndex(key, sh.r.Len()).Groups()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.r.Len()), "ns/row")
		})
	}
}
