package trie

// Iterator is the Leapfrog trie iterator interface over a static Trie
// (open/up/next/seek/key/atEnd, as in Veldhuizen's LFTJ). The iterator
// starts positioned at the root (depth -1); Open descends to the first
// child of the current node, Up returns to the parent.
//
// Seeks use galloping (exponential) search, giving the amortized
// O(log(N/m)) bound the worst-case-optimality argument of Leapfrog needs.
type Iterator struct {
	t *Trie
	// depth is the current level, -1 at the root.
	depth int
	// pos[d] is the index into t.Levels[d].Vals of the node currently open
	// at depth d; end[d] is the exclusive end of its sibling range.
	pos []int32
	end []int32
}

// NewIterator returns an iterator positioned at the root of t.
func NewIterator(t *Trie) *Iterator {
	it := &Iterator{}
	it.Init(t)
	return it
}

// Init (re)binds the iterator to a trie, reusing the position arrays when
// their capacity suffices. It lets callers pool iterators across joins
// instead of allocating one per trie per run.
func (it *Iterator) Init(t *Trie) {
	k := t.Arity()
	it.t = t
	it.depth = -1
	if cap(it.pos) < k {
		it.pos = make([]int32, k)
		it.end = make([]int32, k)
	} else {
		it.pos = it.pos[:k]
		it.end = it.end[:k]
	}
}

// Unbind drops the iterator's trie and keeps its position arrays for the
// next Init: a pooled iterator must not keep its last trie alive.
func (it *Iterator) Unbind() { it.t = nil }

// Reset repositions at the root without reallocating.
func (it *Iterator) Reset() { it.depth = -1 }

// Depth returns the current level (-1 = root).
func (it *Iterator) Depth() int { return it.depth }

// Open descends to the first child of the current node. It must not be
// called when AtEnd() is true or at the deepest level.
func (it *Iterator) Open() {
	d := it.depth + 1
	l := &it.t.Levels[d]
	var parent int32
	if d == 0 {
		parent = 0
	} else {
		parent = it.pos[d-1]
	}
	it.pos[d] = l.Starts[parent]
	it.end[d] = l.Starts[parent+1]
	it.depth = d
}

// Up returns to the parent level.
func (it *Iterator) Up() { it.depth-- }

// Key returns the value at the current position. Only valid when !AtEnd().
func (it *Iterator) Key() Value { return it.t.Levels[it.depth].Vals[it.pos[it.depth]] }

// AtEnd reports whether the iterator has moved past the last sibling.
func (it *Iterator) AtEnd() bool { return it.pos[it.depth] >= it.end[it.depth] }

// Next advances to the next sibling.
func (it *Iterator) Next() { it.pos[it.depth]++ }

// Seek positions at the least sibling with key >= v, or AtEnd if none.
// Galloping search from the current position: cheap for small forward
// steps, logarithmic for long ones.
func (it *Iterator) Seek(v Value) {
	d := it.depth
	vals := it.t.Levels[d].Vals
	lo := it.pos[d]
	hi := it.end[d]
	if lo >= hi || vals[lo] >= v {
		return
	}
	// Gallop: find a bound b with vals[lo+b] >= v.
	step := int32(1)
	prev := lo
	for lo+step < hi && vals[lo+step] < v {
		prev = lo + step
		step <<= 1
	}
	// Binary search in (prev, min(lo+step, hi)].
	a, b := prev+1, hi
	if lo+step < hi {
		b = lo + step + 1
		if b > hi {
			b = hi
		}
	}
	for a < b {
		mid := a + (b-a)/2
		if vals[mid] < v {
			a = mid + 1
		} else {
			b = mid
		}
	}
	it.pos[d] = a
}

// NodePos returns the value-array index of the current node at its depth;
// it identifies the node when calling Trie.Children on the next level.
func (it *Iterator) NodePos() int32 { return it.pos[it.depth] }

// SetPos repositions the iterator at absolute value index p within the
// current level. Leapfrog frames intersect over the sibling slices
// directly and sync the winning position back through SetPos before
// descending.
func (it *Iterator) SetPos(p int32) { it.pos[it.depth] = p }

// SiblingCount returns the size of the current sibling range (an upper
// bound on remaining Next calls from the range start).
func (it *Iterator) SiblingCount() int32 {
	d := it.depth
	var parent int32
	if d > 0 {
		parent = it.pos[d-1]
	}
	return it.end[d] - it.t.Levels[d].Starts[parent]
}

// CurrentRange returns the full sibling slice at the current depth; used by
// the cached join to materialize intersections.
func (it *Iterator) CurrentRange() []Value { return it.rangeAt(it.depth) }

// ChildRange returns the sibling slice Open would descend into — the
// children of the current node, or the whole first level from the root —
// without moving the iterator. The joiner intersects a leaf's two lists
// straight from these.
func (it *Iterator) ChildRange() []Value { return it.rangeAt(it.depth + 1) }

// rangeAt returns the children, at level d, of the node open at level d-1
// (of the root when d is 0).
func (it *Iterator) rangeAt(d int) []Value {
	l := &it.t.Levels[d]
	var parent int32
	if d > 0 {
		parent = it.pos[d-1]
	}
	return l.Vals[l.Starts[parent]:l.Starts[parent+1]]
}

// RootDirectory returns the trie's level-0 directory when the iterator's
// current sibling range is that level and it has one, else nil.
func (it *Iterator) RootDirectory() *Directory {
	if it.depth != 0 {
		return nil
	}
	return it.t.RootDirectory()
}
