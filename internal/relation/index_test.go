package relation

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refKey is the string key the map-based kernels used before Index: each
// value as eight big-endian bytes, so distinct tuples get distinct keys.
func refKey(cols [][]Value, at []int, i int) string {
	b := make([]byte, 0, 8*len(at))
	for _, c := range at {
		u := uint64(cols[c][i])
		for shift := 56; shift >= 0; shift -= 8 {
			b = append(b, byte(u>>shift))
		}
	}
	return string(b)
}

func attrPositions(r *Relation, attrs []string) []int {
	at := make([]int, len(attrs))
	for i, a := range attrs {
		at[i] = r.AttrIndex(a)
	}
	return at
}

// refHashJoin is the map-based build/probe loop HashJoin replaced, kept as
// the reference for output row order: build on the smaller side (s on a
// tie), probe in row order, matches in build row order.
func refHashJoin(r, s *Relation) *Relation {
	shared := SharedAttrs(r, s)
	build, probe, swapped := s, r, false
	if r.Len() < s.Len() {
		build, probe, swapped = r, s, true
	}
	bi, pi := attrPositions(build, shared), attrPositions(probe, shared)
	outAttrs := slices.Clone(r.Attrs)
	var sExtra []int
	for j, a := range s.Attrs {
		if !r.HasAttr(a) {
			outAttrs = append(outAttrs, a)
			sExtra = append(sExtra, j)
		}
	}
	out := New("ref", outAttrs...)
	ht := make(map[string][]int)
	for i := 0; i < build.Len(); i++ {
		k := refKey(build.cols, bi, i)
		ht[k] = append(ht[k], i)
	}
	for i := 0; i < probe.Len(); i++ {
		for _, m := range ht[refKey(probe.cols, pi, i)] {
			ri, si := i, m
			if swapped {
				ri, si = m, i
			}
			row := r.Tuple(ri)
			for _, j := range sExtra {
				row = append(row, s.cols[j][si])
			}
			out.AppendTuple(row)
		}
	}
	return out
}

// refSemijoin is the nested-loop semijoin: the rows of r, in order, that
// agree with some row of s on the attributes on.
func refSemijoin(r, s *Relation, on []string) *Relation {
	ri, si := attrPositions(r, on), attrPositions(s, on)
	out := New(r.Name, r.Attrs...)
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			match := true
			for c := range on {
				if r.cols[ri[c]][i] != s.cols[si[c]][j] {
					match = false
					break
				}
			}
			if match {
				out.AppendTuple(r.Tuple(i))
				break
			}
		}
	}
	return out
}

// spread maps a small draw onto the value shapes keys take: negative,
// past 2^32, and differing in both halves of the word.
func spread(k int64) Value { return (k - 2) * (1<<32 + 1) }

// randJoinCase draws r(k…, x) and s(y, …k) sharing 0–3 key attributes at
// different column positions, with duplicate rows, sometimes an empty
// side, and half the time one hub key carried by half of each side's rows.
func randJoinCase(rng *rand.Rand) (r, s *Relation, on []string) {
	on = []string{"k0", "k1", "k2"}[:rng.Intn(4)]
	rAttrs := append(slices.Clone(on), "x")
	sAttrs := []string{"y"}
	for i := len(on) - 1; i >= 0; i-- {
		sAttrs = append(sAttrs, on[i])
	}
	dom := 1 + rng.Int63n(5)
	hub := rng.Intn(2) == 0
	gen := func(name string, attrs []string) *Relation {
		n := rng.Intn(40)
		if rng.Intn(8) == 0 {
			n = 0
		}
		rel := New(name, attrs...)
		for i := 0; i < n; i++ {
			row := make([]Value, len(attrs))
			for j, a := range attrs {
				switch {
				case a == "x" || a == "y":
					row[j] = rng.Int63n(4)
				case hub && i < n/2:
					row[j] = spread(0)
				default:
					row[j] = spread(rng.Int63n(dom))
				}
			}
			rel.AppendTuple(row)
		}
		return rel
	}
	return gen("R", rAttrs), gen("S", sAttrs), on
}

// HashJoin and Semijoin against the brute-force oracles
// over 0- to 3-column keys, negative and > 2^32 values, empty sides, the
// cross product and a hub key — with either side the smaller (build) one.
func TestIndexMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 400; iter++ {
		r, s, on := randJoinCase(rng)
		outAttrs := append(slices.Clone(r.Attrs), "y")
		want := NaiveJoin([]*Relation{r, s}, outAttrs)
		if got := HashJoin(r, s).SortDedup(); !got.Equal(want) {
			t.Fatalf("iter %d on %v: HashJoin\n%v\nwant\n%v\nfrom %v\nand %v", iter, on, got, want, r, s)
		}
		if got, want := r.Semijoin(s, on), refSemijoin(r, s, on); !got.Equal(want) {
			t.Fatalf("iter %d on %v: Semijoin\n%v\nwant\n%v", iter, on, got, want)
		}
		if got, want := s.Semijoin(r, on), refSemijoin(s, r, on); !got.Equal(want) {
			t.Fatalf("iter %d on %v: reverse Semijoin\n%v\nwant\n%v", iter, on, got, want)
		}
	}
}

// HashJoin returns exactly the rows of the map-based loop it replaced, in
// that loop's order: Sequential runs replay byte for byte only if it does.
func TestHashJoinOrderMatchesMapLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 400; iter++ {
		r, s, on := randJoinCase(rng)
		if got, want := HashJoin(r, s), refHashJoin(r, s); !got.Equal(want) {
			t.Fatalf("iter %d on %v: HashJoin rows\n%v\nwant (map loop)\n%v", iter, on, got, want)
		}
		if got, want := HashJoin(s, r), refHashJoin(s, r); !got.Equal(want) {
			t.Fatalf("iter %d on %v: swapped HashJoin rows\n%v\nwant (map loop)\n%v", iter, on, got, want)
		}
	}
}

// probeLens returns, per group, how many slots a lookup of its key visits
// (1 = found in its home slot).
func probeLens(ix *Index) []int {
	mask := uint64(len(ix.slots) - 1)
	out := make([]int, ix.Groups())
	for g := range out {
		n := 1
		for s := ix.home(ix.cols, int(ix.rep[g])); ix.slots[s]-1 != int32(g); s = (s + 1) & mask {
			n++
		}
		out[g] = n
	}
	return out
}

// Keys that differ only in their high bits, or only in the second column,
// never merge — also when the table is so small that their probes collide.
func TestIndexExactUnderCollisions(t *testing.T) {
	cols := [][]Value{
		{1, 0, 1 << 32, 1, 1 << 33, 1, 0, -1, -1 << 32, 1 << 32, 1},
		{0, 1, 0, 1 << 32, 0, 1 << 40, 1 << 32, 0, 0, 0, 0},
	}
	n := len(cols[0])
	wantRows := [][]int32{{0, 10}, {1}, {2, 9}, {3}, {4}, {5}, {6}, {7}, {8}}
	for _, tableBits := range []uint{4, 5, 10} {
		ix := newIndex(cols, n, tableBits)
		if ix.Groups() != len(wantRows) {
			t.Fatalf("%d slots: %d groups, want %d", len(ix.slots), ix.Groups(), len(wantRows))
		}
		for g, want := range wantRows {
			if got := ix.Lookup(cols, int(want[0])); got != int32(g) {
				t.Fatalf("%d slots: row %d looked up as group %d, want %d", len(ix.slots), want[0], got, g)
			}
			if got := ix.Rows(int32(g)); !slices.Equal(got, want) {
				t.Fatalf("%d slots: group %d rows %v, want %v", len(ix.slots), g, got, want)
			}
		}
		absent := [][]Value{{0, 1 << 31, 2}, {0, 0, 0}}
		for i := range absent[0] {
			if g := ix.Lookup(absent, i); g != -1 {
				t.Fatalf("%d slots: absent key (%d,%d) found as group %d", len(ix.slots), absent[0][i], absent[1][i], g)
			}
		}
		if tableBits == 4 && slices.Max(probeLens(ix)) == 1 {
			t.Fatal("9 keys in 16 slots never collided: the case tests nothing")
		}
	}
}

// Every build side reaches its worker through PartitionBy, so its keys
// agree on HashValue (one key column) or HashTuple (several) modulo the
// worker count. An index whose slot choice shared bits with either would
// crowd them into 1/parts of the table; the mean probe length over one
// worker's keys has to stay where an independent hash puts it (≈1.3 at
// this load).
func TestIndexIndependentOfPartitionHash(t *testing.T) {
	const n = 48000
	ids := make([]Value, n)
	other := make([]Value, n)
	for i := range ids {
		ids[i] = Value(i)
		other[i] = Value(i % 97)
	}
	rel := FromColumns("V", []string{"a", "b"}, [][]Value{ids, other})
	for _, key := range [][]int{{0}, {1, 0}} {
		for _, parts := range []int{4, 8} {
			part := rel.PartitionBy(key, parts)[1]
			cols := make([][]Value, len(key))
			for j, c := range key {
				cols[j] = part.Column(c)
			}
			ix := NewIndex(cols, part.Len())
			if ix.Groups() != part.Len() {
				t.Fatalf("key %v: %d groups for %d distinct keys", key, ix.Groups(), part.Len())
			}
			sum := 0
			for _, l := range probeLens(ix) {
				sum += l
			}
			mean := float64(sum) / float64(ix.Groups())
			t.Logf("key %v, 1 of %d partitions: %d keys in %d slots, mean probe length %.3f",
				key, parts, ix.Groups(), len(ix.slots), mean)
			if mean > 1.5 {
				t.Fatalf("key %v, 1 of %d partitions: mean probe length %.2f slots, want ≤ 1.5: the index's mix is not independent of the partitioning hash",
					key, parts, mean)
			}
		}
	}
}

// joinKernelAllocCeiling bounds the allocations of one HashJoin or Semijoin
// call: schema slices, the index's six, one row-group array and one slice
// per output column. It does not grow with the input; a regression to
// per-row or per-key allocation would exceed it by orders of magnitude.
const joinKernelAllocCeiling = 24

func TestJoinKernelAllocCeiling(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		r, s := calibrateShape(n)
		joined := HashJoin(r, s).Len()
		if joined < n {
			t.Fatalf("n=%d: only %d joined rows, too few for the ceiling to mean anything", n, joined)
		}
		join := testing.AllocsPerRun(3, func() { HashJoin(r, s) })
		semi := testing.AllocsPerRun(3, func() { r.Semijoin(s, []string{"y"}) })
		t.Logf("n=%d: %d joined rows, HashJoin %.0f allocs, Semijoin %.0f allocs", n, joined, join, semi)
		if join > joinKernelAllocCeiling || semi > joinKernelAllocCeiling {
			t.Fatalf("n=%d: HashJoin %.0f, Semijoin %.0f allocations per call, ceiling %d",
				n, join, semi, joinKernelAllocCeiling)
		}
	}

	// A join over its limit is refused after the count pass: nothing the
	// size of an output column is ever allocated.
	const side, limit = 2000, 1 << 20
	hubR := FromColumns("R", []string{"a", "b"}, [][]Value{make([]Value, side), make([]Value, side)})
	hubS := FromColumns("S", []string{"b", "c"}, [][]Value{make([]Value, side), make([]Value, side)})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := HashJoinLimit(hubR, hubS, limit)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%d×%d hub join under limit %d: err %v, want ErrTooLarge", side, side, limit, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8*limit {
		t.Fatalf("refused join allocated %d bytes, an output column of %d rows is %d", grew, limit, 8*limit)
	}
}

// calibrateShape returns the two relations costmodel.CalibrateJoinRate
// joins, at n rows a side: a(x,y) ⋈ b(y,z) with y drawn from n/4 values.
func calibrateShape(n int) (a, b *Relation) {
	rng := rand.New(rand.NewSource(2))
	a = NewWithCapacity("a", n, "x", "y")
	b = NewWithCapacity("b", n, "y", "z")
	for i := 0; i < n; i++ {
		a.Append(rng.Int63n(int64(n)), rng.Int63n(int64(n/4)))
		b.Append(rng.Int63n(int64(n/4)), rng.Int63n(int64(n)))
	}
	return a, b
}
