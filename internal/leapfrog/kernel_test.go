package leapfrog

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"adj/internal/relation"
	"adj/internal/trie"
)

// refDrain2 is the two-iterator leaf loop intersect replaced (frame.drain's
// `case 2`, galloping ping-pong from both cursors), kept verbatim as the
// reference: it appends to run the values it takes, in order, stopping at a
// non-negative limit.
func refDrain2(run, v0, v1 []Value, limit int64) []Value {
	if len(v0) == 0 || len(v1) == 0 {
		return run
	}
	var results int64
	p0, p1 := 0, 0
	k0, k1 := v0[0], v1[0]
	for limit < 0 || results < limit {
		if k0 == k1 {
			results++
			run = append(run, k0)
			p0++
			p1++
			if p0 >= len(v0) || p1 >= len(v1) {
				break
			}
			k0, k1 = v0[p0], v1[p1]
		} else if k0 < k1 {
			p0 = seekSlice(v0, p0, k1)
			if p0 >= len(v0) {
				break
			}
			k0 = v0[p0]
		} else {
			p1 = seekSlice(v1, p1, k0)
			if p1 >= len(v1) {
				break
			}
			k1 = v1[p1]
		}
	}
	return run
}

// ascending returns n distinct ascending values drawn from [lo, lo+span).
func ascending(rng *rand.Rand, n int, lo Value, span int64) []Value {
	seen := make(map[Value]bool, n)
	out := make([]Value, 0, n)
	for len(out) < n {
		v := lo + rng.Int63n(span)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The kernel against the loop it replaced: same count and same emitted
// prefix at every limit, in both argument orders, on both sides of the
// merge/gallop switch.
func TestIntersectKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type pair struct {
		name string
		a, b []Value
	}
	cases := []pair{
		{"both-empty", nil, nil},
		{"one-empty", nil, ascending(rng, 9, 0, 40)},
		{"disjoint", []Value{1, 3, 5, 7}, []Value{0, 2, 4, 6, 8}},
		{"disjoint-ranges", ascending(rng, 20, 0, 100), ascending(rng, 20, 1000, 100)},
		{"singletons-equal", []Value{7}, []Value{7}},
		{"negative", ascending(rng, 40, -90, 80), ascending(rng, 40, -70, 80)},
		{"beyond-2^32", ascending(rng, 40, 1<<40, 90), ascending(rng, 40, 1<<40+20, 90)},
		{"extremes", []Value{math.MinInt64, -1, 0, math.MaxInt64}, []Value{math.MinInt64, 0, 5, math.MaxInt64}},
	}
	same := ascending(rng, 33, -10, 200)
	cases = append(cases, pair{"identical", same, append([]Value(nil), same...)})
	for _, n := range []int{1, 5, 16, 33} {
		// Equal sizes, then the long side at 7×, 8× and 9× the short one:
		// gallopRatio is 8, so the switch sits between the last two.
		for _, ratio := range []int{1, 7, 8, 9, 40} {
			span := int64(3 * n * ratio)
			cases = append(cases, pair{"ratio", ascending(rng, n, 0, span), ascending(rng, n*ratio, 0, span)})
		}
	}
	for _, c := range cases {
		full := refDrain2(nil, c.a, c.b, -1)
		m := int64(len(full))
		for _, limit := range []int64{-1, 0, 1, m - 1, m, m + 1} {
			if limit < -1 {
				continue
			}
			want := refDrain2(nil, c.a, c.b, limit)
			for _, swap := range []bool{false, true} {
				a, b := c.a, c.b
				if swap {
					a, b = b, a
				}
				if got := intersect(a, b, limit, nil); got != int64(len(want)) {
					t.Fatalf("%s |a|=%d |b|=%d limit=%d swap=%v: counted %d, reference takes %d",
						c.name, len(a), len(b), limit, swap, got, len(want))
				}
				run := []Value{-7} // the kernel appends; what is there stays
				got := intersect(a, b, limit, &run)
				if got != int64(len(want)) || run[0] != -7 || !reflect.DeepEqual(append([]Value(nil), run[1:]...), append([]Value(nil), want...)) {
					t.Fatalf("%s |a|=%d |b|=%d limit=%d swap=%v: emitted %v (count %d), reference %v",
						c.name, len(a), len(b), limit, swap, run[1:], got, want)
				}
			}
		}
	}
}

// seekRoot through a directory lands where a binary search over the whole
// root does, from every cursor the precondition (vals[from] < v) allows.
func TestSeekRootMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	wide := ascending(rng, 62, -1000, 2000)
	roots := [][]Value{
		ascending(rng, 200, 0, 260),                                    // dense: about one value per bucket
		ascending(rng, 200, -1<<40, 1<<41),                             // sparse, negative to positive
		append(ascending(rng, 99, 0, 120), 1<<50),                      // all but one value in the first bucket
		append(append([]Value{math.MinInt64}, wide...), math.MaxInt64), // the span overflows int64
		{math.MinInt64, 0, math.MaxInt64},                              // too small to index: plain gallop
	}
	for ri, root := range roots {
		r := relation.New("R", "a")
		for _, v := range root {
			r.Append(v)
		}
		it := trie.NewIterator(trie.Build(r, []string{"a"}))
		it.Open()
		dir := it.RootDirectory()
		if (dir != nil) != (len(root) > 3) {
			t.Fatalf("root %d (%d values): directory present = %v", ri, len(root), dir != nil)
		}
		vals := it.CurrentRange()
		var probes []Value
		for _, v := range root {
			probes = append(probes, v)
			if v > math.MinInt64 {
				probes = append(probes, v-1)
			}
			if v < math.MaxInt64 {
				probes = append(probes, v+1)
			}
		}
		for _, v := range probes {
			want := sort.Search(len(vals), func(i int) bool { return vals[i] >= v })
			for from := 0; from < len(vals) && vals[from] < v; from++ {
				if got := seekRoot(vals, from, v, dir); got != want {
					t.Fatalf("root %d: seek %d from %d = %d, search says %d", ri, v, from, got, want)
				}
			}
		}
	}
}

// The leaf through the bitmap against the same reference: one pooled-style
// joiner meets every pair of a grid of lengths × ratios × value spans (dense,
// sparse, wider than the bitmap may be, negative, the int64 extremes), with
// either list as the stable one and with none, counting and emitting, at every
// limit that changes the answer. The joiner is not reset between pairs, so a
// bit left behind by one list is a wrong count for the next.
func TestMeetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type pair struct {
		name string
		a, b []Value
	}
	var cases []pair
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
		for _, ratio := range []int{1, 2, 7, 8, 9, 64} {
			if n*ratio > 8000 {
				continue
			}
			for _, sp := range []struct {
				name     string
				lo, span int64
			}{
				{"dense", 0, int64(2*n*ratio + 2)},
				{"sparse", -1 << 20, 1 << 21},
				{"negative", -5000 - int64(3*n*ratio), int64(3*n*ratio + 3)},
				{"wider-than-cap", -1 << 40, 1 << 41},
				{"at-min", math.MinInt64, int64(4*n*ratio + 4)},
				{"at-max", math.MaxInt64 - int64(4*n*ratio+4), int64(4*n*ratio + 4)},
			} {
				a, b := ascending(rng, n, sp.lo, sp.span), ascending(rng, n*ratio, sp.lo, sp.span)
				if sp.name == "wider-than-cap" && n > 1 {
					// One list spanning the whole of int64: the span
					// arithmetic must not wrap into a small bitmap.
					a[0], a[len(a)-1] = math.MinInt64, math.MaxInt64
				}
				cases = append(cases, pair{fmt.Sprintf("%s/%dx%d", sp.name, n, n*ratio), a, b})
			}
		}
	}
	var probed, merged int
	j := &joiner{}
	for _, c := range cases {
		full := refDrain2(nil, c.a, c.b, -1)
		m := int64(len(full))
		for _, limit := range []int64{-1, 0, 1, m / 2, m - 1, m, m + 1} {
			want := refDrain2(nil, c.a, c.b, limit)
			for _, swap := range []bool{false, true} {
				a, b := c.a, c.b
				if swap {
					a, b = b, a
				}
				for _, stable := range []int{0, 1, -1} {
					// Twice: the first leaf under a list may wait or
					// mark, the second finds it marked.
					for rep := 0; rep < 2; rep++ {
						j.stable = stable
						if got := j.meet(a, b, limit, false); got != int64(len(want)) {
							t.Fatalf("%s limit=%d swap=%v stable=%d: counted %d, reference takes %d",
								c.name, limit, swap, stable, got, len(want))
						}
						got := j.meet(a, b, limit, true)
						if got != int64(len(want)) || !slices.Equal(j.runBuf[:got], want) {
							t.Fatalf("%s limit=%d swap=%v stable=%d: emitted %v (count %d), reference %v",
								c.name, limit, swap, stable, j.runBuf[:got], got, want)
						}
						if stable >= 0 && len(j.marks.list) > 0 && sameList(j.marks.list, [][]Value{a, b}[stable]) {
							probed++
						} else {
							merged++
						}
					}
				}
			}
		}
	}
	if probed == 0 || merged == 0 {
		t.Fatalf("%d leaves probed, %d merged: the grid must reach both", probed, merged)
	}
	// What release leaves behind: nothing marked, no word set.
	j.release()
	for w, word := range j.marks.bits {
		if word != 0 {
			t.Fatalf("bitmap word %d = %#x after release", w, word)
		}
	}
	if j.marks.list != nil || j.marks.cand != nil {
		t.Fatal("release kept a list")
	}
}
