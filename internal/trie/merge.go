package trie

import (
	"container/heap"
	"sync"

	"adj/internal/relation"
)

// Merge combines block tries of the same schema into a single trie. This is
// the server-side half of the Merge HCube implementation (§V): each block
// arrives with its trie pre-built by the sender, and the receiver merges the
// sorted tuple streams rather than re-sorting raw tuples.
//
// Merge is reuse-safe: inputs are never mutated, and the returned trie
// aliases no pooled scratch — it is either freshly built or, when exactly
// one non-empty input remains, that input itself (callers treating tries
// as immutable, as the whole runtime does, may therefore share both inputs
// and output freely, e.g. across cubes in the block cache). All k-way
// heap state, tuple streams and the staging columns come from an
// internal pool, so repeated merges — the per-cube path of the Merge
// shuffle — allocate only the output trie.
func Merge(ts []*Trie) *Trie {
	// Remember the schema before dropping empty blocks so a fully-empty
	// merge still yields a correctly-typed empty trie.
	var schema []string
	for _, t := range ts {
		if t != nil && len(t.Attrs) > 0 {
			schema = t.Attrs
			break
		}
	}
	ts = nonEmpty(ts)
	if len(ts) == 0 {
		if schema == nil {
			return &Trie{}
		}
		return FromSorted(relation.New("merged", schema...))
	}
	if len(ts) == 1 {
		return ts[0]
	}
	m := mergePool.Get().(*merger)
	t := m.merge(ts)
	mergePool.Put(m)
	return t
}

// merger holds the pooled k-way merge state: tuple streams (iterator +
// current-tuple buffer each), the stream heap's item slice, the dedup
// buffer and the staging columns.
type merger struct {
	streams []tupleStream
	h       streamHeap
	last    []Value
	cols    [][]Value
}

var mergePool = sync.Pool{New: func() interface{} { return &merger{} }}

func (m *merger) merge(ts []*Trie) *Trie {
	k := ts[0].Arity()
	attrs := ts[0].Attrs
	// Bind one stream per input, reusing stream slots (and their iterator
	// position arrays and tuple buffers) from previous merges. Heap items
	// point into m.streams, so the slice must reach its final length
	// before any pointers are taken.
	if cap(m.streams) < len(ts) {
		m.streams = make([]tupleStream, len(ts))
	} else {
		m.streams = m.streams[:len(ts)]
	}
	if cap(m.h.items) < len(ts) {
		m.h.items = make([]*tupleStream, 0, len(ts))
	} else {
		m.h.items = m.h.items[:0]
	}
	for i, t := range ts {
		s := &m.streams[i]
		s.init(t)
		if s.next() {
			m.h.items = append(m.h.items, s)
		}
	}
	m.h.k = k
	heap.Init(&m.h)
	// Stage the merged, deduplicated rows in pooled columns;
	// fromSortedColumns copies them into fresh level arrays, so the
	// backing stays with the pool afterwards.
	if cap(m.cols) < k {
		m.cols = make([][]Value, k)
	}
	cols := m.cols[:k]
	need := totalTuples(ts)
	for j := range cols {
		if cap(cols[j]) < need {
			cols[j] = make([]Value, 0, need)
		}
		cols[j] = cols[j][:0]
	}
	if cap(m.last) < k {
		m.last = make([]Value, k)
	}
	last := m.last[:k]
	havLast := false
	for m.h.Len() > 0 {
		s := m.h.items[0]
		if !havLast || !equalTuple(last, s.cur) {
			copy(last, s.cur)
			havLast = true
			for j, v := range s.cur {
				cols[j] = append(cols[j], v)
			}
		}
		if s.next() {
			heap.Fix(&m.h, 0)
		} else {
			heap.Pop(&m.h)
		}
	}
	t := fromSortedColumns(attrs, cols)
	// Drop every input-trie reference before the merger parks in the pool:
	// callers (the block cache in particular) release their part tries
	// after merging, and a pooled stream slot must not pin them. Clearing
	// runs at the end of every merge, so slots beyond a later, smaller
	// merge's length hold no stale pointers either.
	for i := range m.streams {
		m.streams[i].t = nil
		m.streams[i].it.t = nil
	}
	m.h.items = m.h.items[:0]
	return t
}

func nonEmpty(ts []*Trie) []*Trie {
	var out []*Trie
	for _, t := range ts {
		if t != nil && t.NumTuples > 0 {
			out = append(out, t)
		}
	}
	return out
}

func totalTuples(ts []*Trie) int {
	n := 0
	for _, t := range ts {
		n += t.NumTuples
	}
	return n
}

func equalTuple(a, b []Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tupleStream walks a trie's tuples in lexicographic order iteratively.
type tupleStream struct {
	t   *Trie
	it  Iterator
	cur []Value
	// started marks whether the depth-first walk has begun.
	started bool
}

// init rebinds a (possibly recycled) stream to a trie, reusing the
// iterator's position arrays and the tuple buffer.
func (s *tupleStream) init(t *Trie) {
	s.t = t
	s.it.Init(t)
	s.started = false
	k := t.Arity()
	if cap(s.cur) < k {
		s.cur = make([]Value, k)
	} else {
		s.cur = s.cur[:k]
	}
}

// next advances to the next tuple; returns false when exhausted.
func (s *tupleStream) next() bool {
	k := s.t.Arity()
	if k == 0 || s.t.NumTuples == 0 {
		return false
	}
	it := &s.it
	if !s.started {
		s.started = true
		// Initial descent: open exactly k levels from the root, recording
		// the key at every depth. Counting levels explicitly keeps the
		// loop independent of the iterator's root-depth convention (a
		// depth-based condition like `Depth() < k-1` only stays correct
		// for arity-1 tries because the root sits at depth -1); the unary
		// merge regression tests in columnar_test.go pin the behavior.
		for d := 0; d < k; d++ {
			it.Open()
			if it.AtEnd() {
				return false
			}
			s.cur[d] = it.Key()
		}
		return true
	}
	// Advance deepest level; on exhaustion pop up and advance there.
	for {
		it.Next()
		if !it.AtEnd() {
			s.cur[it.Depth()] = it.Key()
			// Re-descend to the deepest level.
			for it.Depth() < k-1 {
				it.Open()
				s.cur[it.Depth()] = it.Key()
			}
			return true
		}
		it.Up()
		if it.Depth() < 0 {
			return false
		}
	}
}

type streamHeap struct {
	items []*tupleStream
	k     int
}

func (h *streamHeap) Len() int { return len(h.items) }
func (h *streamHeap) Less(i, j int) bool {
	a, b := h.items[i].cur, h.items[j].cur
	for x := 0; x < h.k; x++ {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return false
}
func (h *streamHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *streamHeap) Push(x interface{}) { h.items = append(h.items, x.(*tupleStream)) }
func (h *streamHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
