// Package leapfrog implements the Leapfrog Triejoin worst-case-optimal join
// (Veldhuizen 2012; §II-A and Alg. 1 of the paper). The join walks a global
// attribute order; at each depth it intersects, by leapfrogging seeks, the
// sorted child ranges of every relation containing that attribute. The
// implementation is iterative ("a series of iterators", as the paper notes)
// and leaves no intermediate results in memory.
//
// The per-level binding counters (Stats.LevelTuples) feed the cost model
// (§III-B) and reproduce Fig. 6 and Fig. 8.
package leapfrog

import (
	"errors"
	"fmt"
	"sync"

	"adj/internal/relation"
	"adj/internal/trie"
)

// Value aliases relation.Value.
type Value = relation.Value

// ErrBudget is returned when a run exceeds Options.Budget; the experiment
// harness maps it to the paper's frame-top "did not finish" bars.
var ErrBudget = errors.New("leapfrog: extension budget exceeded")

// ErrCanceled is returned when Options.Cancel reports cancellation mid-run;
// the engines map it back to their context's error.
var ErrCanceled = errors.New("leapfrog: run canceled")

// cancelStride is how many main-loop iterations pass between Cancel polls:
// rare enough that the indirect call disappears from the hot path, frequent
// enough that cancellation latency stays in the microseconds.
const cancelStride = 1024

// Stats captures the work a join performed.
type Stats struct {
	// LevelTuples[d] counts the partial bindings materialized at depth d
	// (|T_{d+1}| in the paper's notation: bindings of the first d+1 attrs).
	LevelTuples []int64
	// Results is the number of full output tuples.
	Results int64
	// EmittedRuns counts batched run deliveries to the result sink and
	// EmittedValues the tuples inside them (EmittedValues == Results on an
	// unbudgeted emitting run). Both stay zero for counting-only runs; the
	// bench harness asserts they are nonzero whenever output is collected,
	// pinning that the batched path actually engages.
	EmittedRuns   int64
	EmittedValues int64
}

// Total returns the total number of intermediate tuples across levels,
// excluding final results.
func (s Stats) Total() int64 {
	var t int64
	for d := 0; d < len(s.LevelTuples)-1; d++ {
		t += s.LevelTuples[d]
	}
	return t
}

// TotalWithResults sums all levels including the last.
func (s Stats) TotalWithResults() int64 {
	var t int64
	for _, v := range s.LevelTuples {
		t += v
	}
	return t
}

// Options configures a run.
type Options struct {
	// Sink, when non-nil, receives results as batched runs (see Sink);
	// nil means counting only.
	Sink Sink
	// Budget caps total extension work (sum of level tuples); 0 = unlimited.
	Budget int64
	// Cancel, when non-nil, is polled periodically (every cancelStride
	// bindings); returning true aborts the run with ErrCanceled. The engines
	// wire a context.Context's Err here so a mid-join cancellation returns
	// promptly instead of finishing the cube.
	Cancel func() bool
}

// BuildTries builds, for each bound relation, a trie whose attribute order
// is the relation's attributes sorted by position in the global order. All
// engines share this preparation step.
func BuildTries(rels []*relation.Relation, order []string) []*trie.Trie {
	out := make([]*trie.Trie, len(rels))
	for i, r := range rels {
		out[i] = trie.Build(r, trie.AttrsInOrder(r.Attrs, order))
	}
	return out
}

// Join runs Leapfrog Triejoin over pre-built tries. Each trie's attribute
// list must be sorted by position in order (as BuildTries produces), and
// every trie attribute must appear in order. Joiner state (iterators,
// per-depth frames, bindings) comes from a pool, so repeated joins — the
// per-cube loop of every engine — allocate only their Stats counters.
func Join(tries []*trie.Trie, order []string, opt Options) (Stats, error) {
	j := joinerPool.Get().(*joiner)
	defer func() {
		j.release()
		joinerPool.Put(j)
	}()
	if err := j.init(tries, order); err != nil {
		return Stats{}, err
	}
	return j.run(opt)
}

// JoinRelations is the convenience form: build tries then join.
func JoinRelations(rels []*relation.Relation, order []string, opt Options) (Stats, error) {
	return Join(BuildTries(rels, order), order, opt)
}

// joiner holds the per-run state; instances are pooled and re-initialized
// per join, reusing every backing array.
type joiner struct {
	order []string
	n     int
	// active[d] lists the trie iterators participating at depth d.
	active [][]*trie.Iterator
	// iters owns one iterator per trie (values, re-Init'ed per run).
	iters []trie.Iterator
	// frames holds one leapfrog ring per depth.
	frames []frame
	// binding holds the current prefix values.
	binding []Value
	// pos maps attribute -> order position, cleared per init.
	pos map[string]int
	// runBuf stages non-contiguous leaf matches (two or more relations at
	// the leaf) into one slice per leaf so they reach the sink as a single
	// run.
	runBuf []Value
	// stable is the index, in the two-relation leaf's ring, of the iterator
	// whose candidate list outlives a leaf (see stableLeaf), or -1; marks is
	// the bitmap of that list the leaf probes.
	stable int
	marks  markSet
}

var joinerPool = sync.Pool{New: func() interface{} { return &joiner{} }}

// init rebinds the pooled joiner to a new trie set and order.
func (j *joiner) init(tries []*trie.Trie, order []string) error {
	if j.pos == nil {
		j.pos = make(map[string]int, len(order))
	} else {
		clear(j.pos)
	}
	for i, a := range order {
		j.pos[a] = i
	}
	j.order = order
	j.n = len(order)
	j.binding = growValues(j.binding, j.n)
	if cap(j.iters) < len(tries) {
		j.iters = make([]trie.Iterator, len(tries))
	} else {
		j.iters = j.iters[:len(tries)]
	}
	if cap(j.active) < j.n {
		j.active = make([][]*trie.Iterator, j.n)
	} else {
		j.active = j.active[:j.n]
	}
	for d := range j.active {
		j.active[d] = j.active[d][:0]
	}
	for ti, t := range tries {
		prev := -1
		for _, a := range t.Attrs {
			p, ok := j.pos[a]
			if !ok {
				return fmt.Errorf("leapfrog: trie attribute %q not in order %v", a, order)
			}
			if p < prev {
				return fmt.Errorf("leapfrog: trie %d attrs %v not sorted by order %v", ti, t.Attrs, order)
			}
			prev = p
		}
		j.iters[ti].Init(t)
	}
	for ti, t := range tries {
		it := &j.iters[ti]
		for _, a := range t.Attrs {
			j.active[j.pos[a]] = append(j.active[j.pos[a]], it)
		}
	}
	for d, as := range j.active {
		if len(as) == 0 {
			return fmt.Errorf("leapfrog: attribute %q not covered by any relation", order[d])
		}
	}
	j.stable = j.stableLeaf(tries)
	if cap(j.frames) < j.n {
		j.frames = make([]frame, j.n)
	} else {
		j.frames = j.frames[:j.n]
	}
	for d := range j.frames {
		f := &j.frames[d]
		f.iters = j.active[d]
		na := len(f.iters)
		f.keys = growValues(f.keys, na)
		if cap(f.vals) < na {
			f.vals = make([][]Value, na)
			f.pos = make([]int, na)
			f.base = make([]int32, na)
			f.dirs = make([]*trie.Directory, na)
		} else {
			f.vals = f.vals[:na]
			f.pos = f.pos[:na]
			f.base = f.base[:na]
			f.dirs = f.dirs[:na]
		}
		f.p = 0
		f.key = 0
		f.atEnd = false
		f.open_ = false
	}
	return nil
}

func growValues(s []Value, n int) []Value {
	if cap(s) < n {
		return make([]Value, n)
	}
	return s[:n]
}

// run executes the join iteratively. Depths above the last each keep a
// frame (a leapfrog ring over the participating iterators' sibling slices);
// the last depth is never a loop iteration of its own: binding the
// second-to-last attribute hands straight over to leaf, which consumes the
// whole remaining intersection in one pass.
func (j *joiner) run(opt Options) (Stats, error) {
	st := Stats{LevelTuples: make([]int64, j.n)}
	lf := j.frames
	last := j.n - 1
	var work int64
	if last == 0 {
		// One attribute: the join is a single leaf over the roots.
		return st, j.leaf(&st, &opt, &work)
	}
	if !lf[0].open() {
		return st, nil
	}
	d := 0
	var steps int
	for d >= 0 {
		if opt.Cancel != nil {
			if steps%cancelStride == 0 && opt.Cancel() {
				return st, ErrCanceled
			}
			steps++
		}
		f := &lf[d]
		if f.atEnd {
			// Exhausted this level: go up and advance.
			f.close()
			d--
			if d >= 0 {
				lf[d].next()
			}
			continue
		}
		// A value is bound at depth d.
		j.binding[d] = f.key
		st.LevelTuples[d]++
		work++
		if opt.Budget > 0 && work > opt.Budget {
			return st, ErrBudget
		}
		// Descend: sync this level's winning positions back into the
		// iterators so the child ranges below resolve to the bound value.
		f.sync()
		if d+1 < last {
			d++
			lf[d].open()
			continue
		}
		if err := j.leaf(&st, &opt, &work); err != nil {
			return st, err
		}
		f.next()
	}
	return st, nil
}

// leaf counts — and, with a sink, emits as one run under binding[:n-1] —
// every value of the last attribute that joins with the current binding,
// in one pass instead of a next/search round trip per result. The pass is
// capped at the remaining budget so a skewed hub leaf still bails out
// cheaply.
//
// Two relations at the leaf — every edge attribute of a subgraph query is
// shared by exactly two atoms — is the hot shape, and it opens no frame:
// the two candidate lists are read straight off the iterators (their
// parents were synced by the caller) and handed to meet. Any other ring
// size opens the leaf's frame and drains it.
func (j *joiner) leaf(st *Stats, opt *Options, work *int64) error {
	d := j.n - 1
	limit := int64(-1)
	if opt.Budget > 0 {
		limit = opt.Budget - *work + 1
	}
	f := &j.frames[d]
	var cnt int64
	if len(f.iters) == 2 {
		cnt = j.meet(f.iters[0].ChildRange(), f.iters[1].ChildRange(), limit, opt.Sink != nil)
		if opt.Sink != nil && cnt > 0 {
			opt.Sink.BeginRun(j.binding[:d])
			deliver(opt.Sink, st, j.runBuf[:cnt])
		}
	} else {
		if f.open() {
			cnt = f.drain(st, d, opt.Sink, j.binding, limit, &j.runBuf)
		}
		f.close()
	}
	st.LevelTuples[d] += cnt
	st.Results += cnt
	*work += cnt
	if opt.Budget > 0 && *work > opt.Budget {
		return ErrBudget
	}
	return nil
}

// intersect is the two-list kernel: it counts the values common to two
// ascending duplicate-free lists, stopping at limit when that is
// non-negative, and appends them to *run when run is non-nil. Lists within
// gallopRatio of each other in length are merged — every comparison
// advances a cursor and, in the counting form, nothing branches on the
// data; a longer list is galloped over once per value of the shorter
// instead. The threshold is the Extender's, for the reason given there.
func intersect(a, b []Value, limit int64, run *[]Value) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	most := len(a) // no more values than the shorter list has, or than limit allows
	if limit >= 0 && limit < int64(most) {
		most = int(limit)
	}
	n := 0
	switch {
	case len(b) > gallopRatio*len(a):
		k := 0
		for _, v := range a {
			if n == most {
				break
			}
			if b[k] < v {
				if k = seekSlice(b, k, v); k == len(b) {
					break
				}
			}
			if b[k] == v {
				n++
				if run != nil {
					*run = append(*run, v)
				}
				if k++; k == len(b) {
					break
				}
			}
		}
	case run == nil:
		for i, k := 0, 0; i < len(a) && k < len(b) && n < most; {
			x, y := a[i], b[k]
			n += b2i(x == y)
			i += b2i(x <= y)
			k += b2i(y <= x)
		}
	default:
		out := *run
		for i, k := 0, 0; i < len(a) && k < len(b) && n < most; {
			x, y := a[i], b[k]
			if x == y {
				out = append(out, x)
				n++
			}
			i += b2i(x <= y)
			k += b2i(y <= x)
		}
		*run = out
	}
	return int64(n)
}

// b2i is 1 for true, 0 for false; the compiler emits a flag move, no branch.
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// frame is the leapfrog state for one depth: the classic ring of
// iterators, flattened to slice cursors. On open the frame captures each
// iterator's sibling slice once; the inner search loop then gallops over
// plain []Value with local indices — no pointer-chasing through the trie —
// and positions are synced back to the iterators (SetPos) only when the
// join descends.
type frame struct {
	iters []*trie.Iterator
	// vals[i] is iterator i's current sibling slice, pos[i] the cursor
	// within it, base[i] the slice's absolute start in the level's value
	// array, keys[i] the cached vals[i][pos[i]]; dirs[i] is the trie's root
	// directory when vals[i] is its whole first level (nil otherwise).
	vals  [][]Value
	pos   []int
	base  []int32
	keys  []Value
	dirs  []*trie.Directory
	p     int
	key   Value
	atEnd bool
	open_ bool
}

// open descends all active iterators and runs leapfrog-init. Returns false
// when the intersection is immediately empty.
func (f *frame) open() bool {
	// Open every iterator before inspecting ranges: close() pops the whole
	// ring, so bailing out with some iterators unopened would desync their
	// depth (an empty trie — e.g. a relation with no fragment in a cube —
	// yields an empty range here).
	for _, it := range f.iters {
		it.Open()
	}
	f.open_ = true
	f.atEnd = false
	for i, it := range f.iters {
		rng := it.CurrentRange()
		if len(rng) == 0 {
			f.atEnd = true
			return false
		}
		f.vals[i] = rng
		f.base[i] = it.NodePos()
		f.pos[i] = 0
		f.keys[i] = rng[0]
		f.dirs[i] = it.RootDirectory()
	}
	// Sort the ring by current key (ring invariant). The ring has one entry
	// per relation containing this attribute — a handful — so an in-place
	// insertion sort beats sort.Slice and avoids its per-call allocations.
	for i := 1; i < len(f.iters); i++ {
		x, vx, bx, kx, dx := f.iters[i], f.vals[i], f.base[i], f.keys[i], f.dirs[i]
		m := i - 1
		for m >= 0 && f.keys[m] > kx {
			f.iters[m+1] = f.iters[m]
			f.vals[m+1] = f.vals[m]
			f.base[m+1] = f.base[m]
			f.keys[m+1] = f.keys[m]
			f.dirs[m+1] = f.dirs[m]
			m--
		}
		f.iters[m+1], f.vals[m+1], f.base[m+1], f.keys[m+1], f.dirs[m+1] = x, vx, bx, kx, dx
	}
	f.p = 0
	f.search()
	return !f.atEnd
}

// sync writes the frame's slice cursors back into the iterators; required
// before opening the next depth (child ranges derive from parent NodePos).
func (f *frame) sync() {
	for i, it := range f.iters {
		it.SetPos(f.base[i] + int32(f.pos[i]))
	}
}

// close pops all active iterators back to the parent level.
func (f *frame) close() {
	if !f.open_ {
		return
	}
	for _, it := range f.iters {
		it.Up()
	}
	f.open_ = false
}

// seekSlice returns the first index past from with vals[idx] >= v, given
// vals[from] < v, by galloping then binary search — the
// amortized-logarithmic seek the worst-case-optimality argument needs,
// over a flat slice.
func seekSlice(vals []Value, from int, v Value) int {
	n := len(vals)
	step := 1
	prev := from
	for from+step < n && vals[from+step] < v {
		prev = from + step
		step <<= 1
	}
	a, b := prev+1, n
	if from+step < n {
		b = from + step + 1
	}
	for a < b {
		mid := int(uint(a+b) >> 1)
		if vals[mid] < v {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return a
}

// seekRoot is seekSlice for a frame cursor that may sit on a trie's whole
// first level: with a directory the gallop starts at the target's bucket
// instead of at the cursor. A frame below depth 0 re-opens such a level at
// position 0 under every binding, so without it each first seek would
// gallop the whole way in.
func seekRoot(vals []Value, from int, v Value, dir *trie.Directory) int {
	if dir != nil {
		if lo := dir.Floor(v); lo > from {
			if vals[lo] >= v {
				return lo
			}
			from = lo
		}
	}
	return seekSlice(vals, from, v)
}

// search is leapfrog-search: advance the ring until all keys agree.
func (f *frame) search() {
	k := len(f.iters)
	if k == 2 {
		f.search2()
		return
	}
	xPrime := f.keys[(f.p+k-1)%k]
	for {
		x := f.keys[f.p]
		if x == xPrime {
			f.key = x
			return
		}
		vals := f.vals[f.p]
		np := seekRoot(vals, f.pos[f.p], xPrime, f.dirs[f.p])
		if np >= len(vals) {
			f.atEnd = true
			return
		}
		f.pos[f.p] = np
		xPrime = vals[np]
		f.keys[f.p] = xPrime
		f.p++
		if f.p == k {
			f.p = 0
		}
	}
}

// search2 is leapfrog-search for the two-iterator ring — the dominant
// shape in subgraph queries (every edge attribute is shared by exactly two
// atoms in triangles, paths and most cliques' levels). Both cursors live
// in registers for the whole pursuit.
func (f *frame) search2() {
	v0, v1 := f.vals[0], f.vals[1]
	p0, p1 := f.pos[0], f.pos[1]
	k0, k1 := f.keys[0], f.keys[1]
	d0, d1 := f.dirs[0], f.dirs[1]
	for k0 != k1 {
		if k0 < k1 {
			p0 = seekRoot(v0, p0, k1, d0)
			if p0 >= len(v0) {
				f.atEnd = true
				break
			}
			k0 = v0[p0]
		} else {
			p1 = seekRoot(v1, p1, k0, d1)
			if p1 >= len(v1) {
				f.atEnd = true
				break
			}
			k1 = v1[p1]
		}
	}
	f.pos[0], f.pos[1] = p0, p1
	f.keys[0], f.keys[1] = k0, k1
	f.key = k0
	f.p = 0
}

// next is leapfrog-next: advance past the current match.
func (f *frame) next() {
	np := f.pos[f.p] + 1
	vals := f.vals[f.p]
	if np >= len(vals) {
		f.atEnd = true
		return
	}
	f.pos[f.p] = np
	f.keys[f.p] = vals[np]
	f.p++
	if f.p == len(f.iters) {
		f.p = 0
	}
	f.search()
}

// drain consumes the remaining intersection of a leaf frame that is not a
// ring of two (leaf intersects those without a frame) — the caller must be
// positioned on a match — counting (and optionally emitting) every value,
// and leaves the frame atEnd. A non-negative limit stops the drain once
// that many values are taken (the caller's remaining work budget); the
// frame is abandoned mid-range, which is fine because the caller returns
// ErrBudget immediately.
//
// Results reach the sink as one run sharing the prefix binding[:d]: the
// single-iterator case hands its sibling slice to the sink untouched (the
// values already sit contiguously in trie storage), larger rings stage
// matches in runBuf. The count is identical with and without a sink —
// both flows share the same loops — which the truncation regression suite
// pins at every limit boundary.
func (f *frame) drain(st *Stats, d int, sink Sink, binding []Value, limit int64, runBuf *[]Value) int64 {
	var results int64
	if sink != nil {
		sink.BeginRun(binding[:d])
	}
	if len(f.iters) == 1 {
		rest := f.vals[0][f.pos[0]:]
		if limit >= 0 && int64(len(rest)) > limit {
			rest = rest[:limit]
		}
		results = int64(len(rest))
		if sink != nil {
			deliver(sink, st, rest)
		}
	} else {
		run := (*runBuf)[:0]
		for !f.atEnd && (limit < 0 || results < limit) {
			results++
			if sink != nil {
				run = append(run, f.key)
			}
			f.next()
		}
		if sink != nil {
			deliver(sink, st, run)
		}
		*runBuf = run[:0]
	}
	f.atEnd = true
	return results
}
