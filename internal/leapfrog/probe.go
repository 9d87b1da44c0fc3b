package leapfrog

import "adj/internal/trie"

// The probe kernel. Of the two candidate lists a two-relation leaf
// intersects, one often does not change from one leaf to the next: it hangs
// off an attribute bound above the second-to-last depth (Q1 under [a b c]:
// R3's children of a stay put while b runs through R1's), or it is a unary
// relation's root. Merging walks that list again at every leaf, one
// load → compare → advance step per value. markSet instead keeps a bitmap of
// it — bit v−min — and a leaf scans only the *other* list, testing one bit
// per value: no iteration depends on the one before, and the list that stays
// put is not read at all.

// maxMarkWords caps the bitmap at 512 KiB: 2^22 bits of value span, whatever
// the list's length. What bounds a probe is the span, not the density — a
// miss costs the same cache line as a hit — and BenchmarkIntersectProbe puts
// the numbers on it (64 values marked, 64 probing, drawn from the span, 1024
// such pairs so the bitmap is cold; ns per leaf at 2.6 GHz, 1.25 MiB of L2):
//
//	span   probe  mark+probe  merge
//	2^12     118         192    445
//	2^18     119         195    457
//	2^20     128         214    450
//	2^22     143         247    449
//	2^24     217         391    444
//	2^26     317         561    456
//
// Up to 2^22 even a leaf that has to re-mark first costs little over half a
// merge; at 2^24 it is nine tenths and a pooled joiner would hold 2 MiB; at
// 2^26 the re-mark is the dearer one. A list spanning more is merged. The
// same benchmark places the other two switches of markSet.ready, on
// cache-resident lists: 400 values probing 16 marked cost 740–890 ns, the
// gallop 170–190 (so a probe list over gallopRatio × the marked one is left
// to intersect); 16 probing 400 marked cost 27–36 against the gallop's
// 170–190 but 780–820 when the 400 have to be marked first (so a list is
// marked once enough probe values have met it); 16 by 16, 29–45 and 65–72
// against the merge's 86–96.
const maxMarkWords = 1 << 16

// markSet is the bitmap of one ascending list. bits is all zero outside the
// marked list's bits, always: mark clears the previous list by walking it,
// never the span.
type markSet struct {
	// bits has a power-of-two length, so masking brings the word index of
	// any probe value into range; base is the list's first value and span
	// its last minus base, both taken in uint64 (as trie.Directory does) so
	// that MinInt64…MaxInt64 is exact.
	bits []uint64
	base uint64
	span uint64
	// list is the marked list, by identity: trie storage, never copied.
	list []Value
	// cand is the stable list the leaf last saw unmarked and seen the probe
	// values met under it; mark waits until they pay for the build.
	cand []Value
	seen int
}

// sameList reports whether a and b are the same stretch of trie storage.
func sameList(a, b []Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ready reports whether a leaf whose stable list is mk and whose other list
// has probe values should probe the bitmap, building it first if it is due.
// The choice reads the two lengths and mk's value span, nothing else:
//
//   - a probe list over gallopRatio × the marked one is galloped over
//     (intersect), which touches fewer of its values than a scan;
//   - a span over maxMarkWords words is merged;
//   - a list is marked only once the probe values seen under it, at
//     gallopRatio sequential steps a seek, would have paid for walking it —
//     at once when the lists are of a size, never for a long list that a
//     few short ones visit, which stay with the gallop.
func (m *markSet) ready(mk []Value, probe int) bool {
	if len(mk) == 0 || probe > gallopRatio*len(mk) {
		return false
	}
	if sameList(mk, m.list) {
		return true
	}
	span := uint64(mk[len(mk)-1]) - uint64(mk[0])
	if span>>6 >= maxMarkWords {
		return false
	}
	if !sameList(mk, m.cand) {
		m.cand, m.seen = mk, 0
	}
	if m.seen += probe; m.seen*gallopRatio < len(mk) {
		return false
	}
	m.mark(mk, span)
	return true
}

// mark replaces the marked list with mk, whose span the caller computed.
func (m *markSet) mark(mk []Value, span uint64) {
	m.clear()
	words := int(span>>6) + 1
	if len(m.bits) < words {
		// From 2 KiB up, doubling: a join meets its widest list late, and
		// every re-allocation throws a zeroed bitmap away.
		n := 256
		for n < words {
			n <<= 1
		}
		m.bits = make([]uint64, n)
	}
	bits, base := m.bits, uint64(mk[0])
	mask := uint64(len(bits) - 1)
	for _, v := range mk {
		o := uint64(v) - base
		bits[(o>>6)&mask] |= 1 << (o & 63)
	}
	m.list, m.base, m.span = mk, base, span
	m.cand, m.seen = nil, 0
}

// clear zeroes the words the marked list set and forgets it.
func (m *markSet) clear() {
	bits := m.bits
	mask := uint64(len(bits) - 1)
	for _, v := range m.list {
		bits[((uint64(v)-m.base)>>6)&mask] = 0
	}
	m.list = nil
}

// count returns how many values of pr are marked.
func (m *markSet) count(pr []Value) int {
	bits, base, span := m.bits, m.base, m.span
	mask := uint64(len(bits) - 1)
	n := 0
	for _, y := range pr {
		o := uint64(y) - base
		n += int(bits[(o>>6)&mask]>>(o&63)) & b2i(o <= span)
	}
	return n
}

// collect writes the marked values of pr, in order, to the front of out
// (len(out) >= len(pr)) and returns how many there are. Every value is
// stored where the next match belongs and the cursor moves only past a
// match, so the loop has no branch on the data.
func (m *markSet) collect(pr, out []Value) int {
	bits, base, span := m.bits, m.base, m.span
	mask := uint64(len(bits) - 1)
	n := 0
	for _, y := range pr {
		o := uint64(y) - base
		out[n] = y
		n += int(bits[(o>>6)&mask]>>(o&63)) & b2i(o <= span)
	}
	return n
}

// stableLeaf returns which of a two-relation leaf's iterators (index into
// the leaf ring) keeps its candidate list from one leaf to the next, or -1.
// A relation's list at the last depth is the children of its node at the
// attribute before, so it changes only when that attribute is re-bound:
// under every binding of depth n−2 if that is where the attribute sits,
// less often the higher it sits, never for a unary relation (its list is
// the root). Of two stable lists the one bound higher is marked.
func (j *joiner) stableLeaf(tries []*trie.Trie) int {
	d := j.n - 1
	if d < 0 || len(j.active[d]) != 2 {
		return -1
	}
	stable, above := -1, d-1
	k := 0 // position in active[d], which init filled in trie order
	for _, t := range tries {
		m := len(t.Attrs)
		if m == 0 || j.pos[t.Attrs[m-1]] != d {
			continue
		}
		parent := -1
		if m > 1 {
			parent = j.pos[t.Attrs[m-2]]
		}
		if parent < above {
			stable, above = k, parent
		}
		k++
	}
	return stable
}

// meet is the two-relation leaf: the number of values a and b — the
// candidate lists of the leaf ring's iterators 0 and 1 — have in common, at
// most limit when that is non-negative, and with emit those values, ascending,
// in j.runBuf[:n]. It probes the bitmap of the stable list when marks.ready
// says so and is intersect otherwise; the two agree on the count and on the
// run (a scan of the probe list meets the common values in the order the
// merge does, and both stop at the first limit of them).
func (j *joiner) meet(a, b []Value, limit int64, emit bool) int64 {
	mk, pr := a, b
	if j.stable == 1 {
		mk, pr = b, a
	}
	switch {
	case j.stable < 0 || !j.marks.ready(mk, len(pr)):
		if !emit {
			return intersect(a, b, limit, nil)
		}
		run := j.runBuf[:0]
		n := intersect(a, b, limit, &run)
		j.runBuf = run[:0]
		return n
	case emit:
		if cap(j.runBuf) < len(pr) {
			j.runBuf = make([]Value, 0, 2*len(pr))
		}
		return atMost(j.marks.collect(pr, j.runBuf[:len(pr)]), limit)
	default:
		return atMost(j.marks.count(pr), limit)
	}
}

// atMost is n, or limit when that is non-negative and smaller.
func atMost(n int, limit int64) int64 {
	if limit >= 0 && limit < int64(n) {
		return limit
	}
	return int64(n)
}

// release drops every reference the joiner holds into its caller's data —
// the iterators' tries, the frames' sibling slices and directories, the
// marked list — and leaves the bitmap all zero, so that an idle pool keeps
// no cube's tries alive and the next join starts from a clean set.
func (j *joiner) release() {
	j.marks.clear()
	j.marks.cand = nil
	for i := range j.iters {
		j.iters[i].Unbind()
	}
	for d := range j.frames {
		f := &j.frames[d]
		clear(f.vals)
		clear(f.dirs)
	}
	j.order = nil
}
