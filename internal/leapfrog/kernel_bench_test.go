package leapfrog

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adj/internal/dataset"
	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/trie"
)

// leafPairs returns the list pairs the triangle's leaf intersects under
// order [a b c] on a power-law graph: for every edge (a,b), a's neighbours
// in R3 and b's in R2. The slices alias trie storage.
func leafPairs(scale float64) [][2][]Value {
	q := hypergraph.Q1()
	order := []string{"a", "b", "c"}
	tries := BuildTries(q.BindGraph(dataset.Generate(dataset.SpecOf("LJ", scale))), order)
	r1, r2, r3 := tries[0], tries[1], tries[2]
	childrenOf := func(t *trie.Trie, v Value) []Value {
		i, ok := slices.BinarySearch(t.Levels[0].Vals, v)
		if !ok {
			return nil
		}
		return t.Children(1, int32(i))
	}
	var pairs [][2][]Value
	for ai, a := range r1.Levels[0].Vals {
		ac := childrenOf(r3, a)
		if ac == nil {
			continue
		}
		for _, b := range r1.Children(1, int32(ai)) {
			if bc := childrenOf(r2, b); bc != nil {
				pairs = append(pairs, [2][]Value{ac, bc})
			}
		}
	}
	return pairs
}

// BenchmarkIntersect times the two-list kernel, counting and appending,
// beside the galloping ping-pong it replaced (refDrain2, which always
// appends): two 16-value lists (merge range), 16 against 400 (gallop
// range), and every list pair the serve-warm triangle's leaf meets on a
// power-law graph (ns/op is then one pass over all of them).
func BenchmarkIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct {
		name  string
		pairs [][2][]Value
	}{
		{"merge-16x16", [][2][]Value{{ascending(rng, 16, 0, 64), ascending(rng, 16, 0, 64)}}},
		{"gallop-16x400", [][2][]Value{{ascending(rng, 16, 0, 1600), ascending(rng, 400, 0, 1600)}}},
		{"triangle-leaves", leafPairs(0.5)},
	}
	for _, sh := range shapes {
		var values int
		for _, p := range sh.pairs {
			values += len(p[0]) + len(p[1])
		}
		perValue := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
			b.ReportMetric(float64(values)/float64(len(sh.pairs)), "values/pair")
		}
		b.Run(sh.name+"/count", func(b *testing.B) {
			var n int64
			for i := 0; i < b.N; i++ {
				for _, p := range sh.pairs {
					n += intersect(p[0], p[1], -1, nil)
				}
			}
			sinkCount = n
			perValue(b)
		})
		b.Run(sh.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			var run []Value
			for i := 0; i < b.N; i++ {
				for _, p := range sh.pairs {
					run = run[:0]
					intersect(p[0], p[1], -1, &run)
				}
			}
			perValue(b)
		})
		b.Run(sh.name+"/pingpong-ref", func(b *testing.B) {
			b.ReportAllocs()
			var run []Value
			for i := 0; i < b.N; i++ {
				for _, p := range sh.pairs {
					run = refDrain2(run[:0], p[0], p[1], -1)
				}
			}
			perValue(b)
		})
	}
}

var sinkCount int64

// BenchmarkRootSeek times the first seek into a re-opened root level — from
// position 0, to a value drawn uniformly from the root — by plain gallop and
// through the trie's directory, at root sizes on both sides of the
// directory's minimum (tries below it carry none, so their two numbers are
// the same code). The gallop grows with log(size); the directory does not.
func BenchmarkRootSeek(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{8, 16, 32, 64, 256, 4096, 16384} {
		r := relation.New("R", "a")
		for _, v := range ascending(rng, n, 0, int64(n)*6) {
			r.Append(v)
		}
		t := trie.Build(r, []string{"a"})
		it := trie.NewIterator(t)
		it.Open()
		vals := it.CurrentRange()
		probes := make([]Value, 1024)
		for i := range probes {
			probes[i] = vals[1+rng.Intn(n-1)]
		}
		for _, mode := range []struct {
			name string
			dir  *trie.Directory
		}{{"gallop", nil}, {"directory", it.RootDirectory()}} {
			b.Run(fmt.Sprintf("%d/%s", n, mode.name), func(b *testing.B) {
				var pos int
				for i := 0; i < b.N; i++ {
					pos += seekRoot(vals, 0, probes[i%len(probes)], mode.dir)
				}
				sinkCount = int64(pos)
			})
		}
	}
}

// BenchmarkIntersectProbe times the bitmap leaf beside intersect on the same
// lists: the shapes of BenchmarkIntersect (probe list × marked list), then a
// 64-value list marked over wider and wider value spans and probed by 64
// values drawn from the same span — the numbers behind maxMarkWords. "probe"
// is a leaf under a list already marked (the common one: a stable list is
// marked once per binding above the leaf's parent), "mark+probe" pays the
// re-mark — clear the old list, set the new — at every leaf, and "merge" is
// intersect. triangle-leaves runs markSet.ready over the leaf sequence of the
// serve-warm triangle, so it marks as often as the join does.
func BenchmarkIntersectProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	// pairs is how many list pairs a shape cycles through: 64 keeps the
	// lists cache-resident, as the workload's tries are; the span series
	// takes 1024, so that a wide bitmap is probed where no recent leaf left
	// it cached (1024 × 64 values touch every cache line of 2^22 bits).
	type shape struct {
		name              string
		mk, pr, sp, pairs int
	}
	shapes := []shape{
		{"16x16", 16, 16, 64, 64},
		{"16x400", 400, 16, 1600, 64},
		{"400x16", 16, 400, 1600, 64},
	}
	for _, lg := range []int{12, 16, 18, 20, 22, 24, 26} {
		shapes = append(shapes, shape{fmt.Sprintf("64x64/span-2^%d", lg), 64, 64, 1 << lg, 1024})
	}
	for _, sh := range shapes {
		pairs := sh.pairs
		var mks, prs [][]Value
		for i := 0; i < pairs; i++ {
			mks = append(mks, ascending(rng, sh.mk, 0, int64(sh.sp)))
			prs = append(prs, ascending(rng, sh.pr, 0, int64(sh.sp)))
		}
		perValue := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.mk+sh.pr), "ns/value")
		}
		span := func(l []Value) uint64 { return uint64(l[len(l)-1]) - uint64(l[0]) }
		b.Run(sh.name+"/probe", func(b *testing.B) {
			var m markSet
			m.mark(mks[0], span(mks[0]))
			var n int
			for i := 0; i < b.N; i++ {
				n += m.count(prs[i%pairs])
			}
			sinkCount = int64(n)
			perValue(b)
		})
		b.Run(sh.name+"/mark+probe", func(b *testing.B) {
			var m markSet
			var n int
			for i := 0; i < b.N; i++ {
				mk := mks[i%pairs]
				m.mark(mk, span(mk))
				n += m.count(prs[i%pairs])
			}
			sinkCount = int64(n)
			perValue(b)
		})
		b.Run(sh.name+"/merge", func(b *testing.B) {
			var n int64
			for i := 0; i < b.N; i++ {
				n += intersect(mks[i%pairs], prs[i%pairs], -1, nil)
			}
			sinkCount = n
			perValue(b)
		})
	}

	leaves := leafPairs(0.5)
	var values int
	for _, p := range leaves {
		values += len(p[0]) + len(p[1])
	}
	for _, mode := range []string{"count", "append"} {
		emit := mode == "append"
		b.Run("triangle-leaves/"+mode, func(b *testing.B) {
			var m markSet
			out := make([]Value, 1<<16)
			var n int64
			for i := 0; i < b.N; i++ {
				for _, p := range leaves {
					switch {
					case !m.ready(p[0], len(p[1])):
						n += intersect(p[0], p[1], -1, nil)
					case emit:
						n += int64(m.collect(p[1], out))
					default:
						n += int64(m.count(p[1]))
					}
				}
			}
			sinkCount = n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
		})
	}
}
