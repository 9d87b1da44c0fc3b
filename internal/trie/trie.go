// Package trie implements the sorted trie representation of relations used
// by the Leapfrog triejoin (§II-A of the paper) and by the Merge variant of
// HCube (§V), where tries are pre-built per block and merged at the
// receiving server.
//
// A trie over a relation of arity k has k levels. Level d stores, for every
// node of level d-1, the ascending distinct values that extend it. The
// layout is the "three arrays" scheme the paper mentions, generalized to
// arbitrary arity: per level a flat value array plus a starts array that
// delimits each parent's child range.
//
// Level 0 — one ascending run of the first attribute's distinct values — also
// carries a Directory: a bucket index over the value span that lets a seek
// enter the run near its target instead of galloping from the cursor. A join
// re-opens a relation's root under every binding of the attributes before it,
// so those seeks never amortize the way a single leapfrog pass does. The
// directory is plain immutable data built together with the level (Builder,
// FromSorted, Merge, Decode); it is not on the wire, MemBytes counts it, and
// value copies of a Trie share it.
//
// Decode's contract: what decodes is a trie a builder could have produced.
// Every level has one start per parent plus the terminator, starts begin at
// 0, strictly ascend (level 0: exactly [0, len]) and end at the level's value
// count, every sibling range strictly ascends, and NumTuples is the leaf
// count. Anything else is an error at the receiver, never a panic in a join.
package trie

import (
	"fmt"
	"slices"

	"adj/internal/relation"
)

// Value mirrors relation.Value.
type Value = relation.Value

// Level is one depth of the trie.
type Level struct {
	// Vals holds the child values of every parent node, grouped by parent,
	// ascending within each group.
	Vals []Value
	// Starts has one entry per parent node plus a terminator: children of
	// parent p are Vals[Starts[p]:Starts[p+1]]. Level 0 has exactly one
	// parent (the root), so Starts is [0, numRootChildren].
	Starts []int32
}

// Trie is a static, immutable sorted trie over a relation.
type Trie struct {
	Attrs  []string
	Levels []Level
	// NumTuples is the number of distinct tuples represented.
	NumTuples int
	// Root indexes level 0 (zero value: no directory, seeks gallop).
	Root Directory
}

// AttrsInOrder returns attrs sorted by position in a join's global
// attribute order: the level order of the trie the join reads for a
// relation over attrs. attrs itself is left as it is.
func AttrsInOrder(attrs, order []string) []string {
	out := slices.Clone(attrs)
	slices.SortStableFunc(out, func(a, b string) int { return slices.Index(order, a) - slices.Index(order, b) })
	return out
}

// Directory is a bucket index over a trie's level 0. The value span
// [min, max] is cut into equal buckets of 2^shift values, at most two
// buckets per root value, and idx[b] is the first position whose value lies
// in bucket b or a later one. Every value before idx[bucket(v)] is in an
// earlier bucket, hence smaller than v, so a seek for v may start there:
// exact for any int64 values (the span is taken in uint64, where it cannot
// overflow), one probe when the root is dense, a short gallop inside a
// crowded bucket otherwise.
type Directory struct {
	idx   []int32
	min   Value
	shift uint8
}

// minDirectoryRoot is the smallest root that gets a directory. A gallop from
// the start of a shorter root costs within a few nanoseconds of a directory
// probe (BenchmarkRootSeek in internal/leapfrog: 10–12 ns at 8 and 16 values,
// ≈ 4 more than a probe; from 32 up the gallop is over twice the probe's 5 ns
// and keeps growing with log n), which does not pay for one more allocation
// in each of the thousands of small block tries a cold shuffle builds.
const minDirectoryRoot = 32

// newDirectory indexes an ascending, duplicate-free root level.
func newDirectory(root []Value) Directory {
	n := len(root)
	if n < minDirectoryRoot {
		return Directory{}
	}
	min := root[0]
	span := uint64(root[n-1]) - uint64(min)
	shift := 0
	for span>>shift >= uint64(2*n) {
		shift++
	}
	idx := make([]int32, span>>shift+1)
	b := 0
	for p, v := range root {
		for vb := int((uint64(v) - uint64(min)) >> shift); b <= vb; b++ {
			idx[b] = int32(p)
		}
	}
	return Directory{idx: idx, min: min, shift: uint8(shift)}
}

// RootDirectory returns the trie's level-0 directory, or nil when the root
// is too short to have one.
func (t *Trie) RootDirectory() *Directory {
	if len(t.Root.idx) == 0 {
		return nil
	}
	return &t.Root
}

// Floor returns a position no root value at or above v precedes: the place
// to start seeking v from. An empty directory answers 0.
func (d *Directory) Floor(v Value) int {
	if len(d.idx) == 0 || v <= d.min {
		return 0
	}
	b := (uint64(v) - uint64(d.min)) >> d.shift
	if last := uint64(len(d.idx) - 1); b > last {
		b = last // v is past the root's maximum
	}
	return int(d.idx[b])
}

// Build constructs a trie from r with columns reordered to `attrs` (which
// must be a permutation of r.Attrs). Rows are sorted and deduplicated into
// the trie's level arrays without materializing a permuted copy; r itself
// is not modified. Scratch buffers come from an internal Builder pool, so
// repeated builds (the per-cube loop of the engines) are allocation-light.
func Build(r *relation.Relation, attrs []string) *Trie {
	b := builderPool.Get().(*Builder)
	t := b.Build(r, attrs)
	builderPool.Put(b)
	return t
}

// FromSorted constructs a trie from a relation already sorted
// lexicographically with duplicates removed, without copying the data again.
func FromSorted(r *relation.Relation) *Trie {
	return fromSortedColumns(r.Attrs, r.Columns())
}

// fromSortedColumns is FromSorted over bare columns (one per attribute,
// equal lengths); the level arrays are fresh, cols is only read.
func fromSortedColumns(attrs []string, cols [][]Value) *Trie {
	k := len(attrs)
	n := 0
	if k > 0 {
		n = len(cols[0])
	}
	t := &Trie{Attrs: append([]string(nil), attrs...), Levels: make([]Level, k), NumTuples: n}
	if k == 0 || n == 0 {
		for d := 0; d < k; d++ {
			t.Levels[d] = Level{Starts: []int32{0}}
		}
		if k > 0 {
			t.Levels[0].Starts = []int32{0, 0}
		}
		return t
	}
	// prevGroup[i] = index of the level-(d-1) node owning tuple row i.
	// At level 0 all rows share the root.
	group := make([]int32, n)
	for d := 0; d < k; d++ {
		lvl := &t.Levels[d]
		var parents int32
		if d == 0 {
			parents = 1
		} else {
			parents = int32(len(t.Levels[d-1].Vals))
		}
		lvl.Starts = make([]int32, 0, parents+1)
		newGroup := make([]int32, n)
		prevParent := int32(-1)
		for i, v := range cols[d] {
			p := group[i]
			if p != prevParent {
				// Starting a new parent: close out starts up to p.
				for int32(len(lvl.Starts)) <= p {
					lvl.Starts = append(lvl.Starts, int32(len(lvl.Vals)))
				}
				prevParent = p
				lvl.Vals = append(lvl.Vals, v)
			} else if lvl.Vals[len(lvl.Vals)-1] != v {
				lvl.Vals = append(lvl.Vals, v)
			}
			newGroup[i] = int32(len(lvl.Vals) - 1)
		}
		for int32(len(lvl.Starts)) <= parents {
			lvl.Starts = append(lvl.Starts, int32(len(lvl.Vals)))
		}
		group = newGroup
	}
	t.Root = newDirectory(t.Levels[0].Vals)
	return t
}

// Arity returns the number of levels.
func (t *Trie) Arity() int { return len(t.Levels) }

// Len returns the number of tuples.
func (t *Trie) Len() int { return t.NumTuples }

// SizeValues returns the total number of stored values across levels; the
// Merge HCube uses it to account serialized size.
func (t *Trie) SizeValues() int {
	s := 0
	for _, l := range t.Levels {
		s += len(l.Vals)
	}
	return s
}

// MemBytes estimates the resident heap size of the trie: level value and
// start arrays, the root directory, plus a fixed struct overhead. The
// session block-trie store charges entries against its byte budget with
// this estimate.
func (t *Trie) MemBytes() int64 {
	b := int64(64) + int64(len(t.Root.idx))*4 // struct + slice headers, directory
	for _, l := range t.Levels {
		b += int64(len(l.Vals))*8 + int64(len(l.Starts))*4
	}
	for _, a := range t.Attrs {
		b += int64(len(a)) + 16
	}
	return b
}

// Children returns the child value slice of parent node p at level d.
func (t *Trie) Children(d int, p int32) []Value {
	l := t.Levels[d]
	return l.Vals[l.Starts[p]:l.Starts[p+1]]
}

// Enumerate streams all tuples in lexicographic order into fn; fn must copy
// the tuple if it retains it. Enumeration order equals the sorted relation.
func (t *Trie) Enumerate(fn func(relation.Tuple)) {
	k := t.Arity()
	if k == 0 || t.NumTuples == 0 {
		return
	}
	row := make([]Value, k)
	var rec func(d int, parent int32)
	rec = func(d int, parent int32) {
		l := t.Levels[d]
		for i := l.Starts[parent]; i < l.Starts[parent+1]; i++ {
			row[d] = l.Vals[i]
			if d == k-1 {
				fn(row)
			} else {
				rec(d+1, i)
			}
		}
	}
	rec(0, 0)
}

// ToRelation materializes the trie back into a sorted relation.
func (t *Trie) ToRelation(name string) *relation.Relation {
	out := relation.NewWithCapacity(name, t.NumTuples, t.Attrs...)
	t.Enumerate(func(tp relation.Tuple) { out.AppendTuple(tp) })
	return out
}

// String summarizes the trie shape.
func (t *Trie) String() string {
	return fmt.Sprintf("trie(%v) tuples=%d values=%d", t.Attrs, t.NumTuples, t.SizeValues())
}
