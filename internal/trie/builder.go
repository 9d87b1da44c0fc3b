package trie

import (
	"fmt"
	"sync"

	"adj/internal/relation"
)

// Builder constructs tries directly from a relation's columns without the
// materialize-copy → sort → dedup → FromSorted pipeline. It sorts a row
// index column-wise with an LSD radix sort over the int64 values, then
// writes exactly-sized Levels arrays, each level from its own column — for
// pre-sorted input (the shuffle-block common case) every pass is a pure
// sequential scan. All scratch
// (index permutation, gathered column keys, first-difference marks) is
// owned by the Builder and reused across builds, so a steady-state build
// allocates only the trie's own 2k level arrays.
//
// A Builder is not safe for concurrent use; pool one per goroutine (the
// package-level Build does this automatically via an internal sync.Pool).
type Builder struct {
	idx     []int32  // row permutation being sorted
	tmpIdx  []int32  // radix ping-pong buffer
	keys    []uint64 // gathered (sign-flipped) column keys, aligned with idx
	tmpKeys []uint64
	first   []int32   // first level where sorted row i differs from row i-1; k = duplicate
	pcols   [][]Value // the source relation's column of each trie level
}

// NewBuilder returns an empty builder; scratch grows on first use.
func NewBuilder() *Builder { return &Builder{} }

var builderPool = sync.Pool{New: func() interface{} { return NewBuilder() }}

// signFlip maps int64 order onto uint64 order for radix passes.
const signFlip = uint64(1) << 63

// Build constructs a trie from r with columns reordered to attrs. See the
// package-level Build for the contract; this variant reuses the builder's
// scratch buffers.
func (b *Builder) Build(r *relation.Relation, attrs []string) *Trie {
	if len(attrs) != len(r.Attrs) {
		panic(fmt.Sprintf("trie: attr order %v is not a permutation of %v", attrs, r.Attrs))
	}
	k := len(attrs)
	n := r.Len()
	if cap(b.pcols) < k {
		b.pcols = make([][]Value, k)
	}
	pcols := b.pcols[:k]
	// A pooled Builder must not pin the source relation's data alive.
	defer clear(pcols)
	for d, a := range attrs {
		j := r.AttrIndex(a)
		if j < 0 {
			panic(fmt.Sprintf("trie: attr order %v is not a permutation of %v", attrs, r.Attrs))
		}
		pcols[d] = r.Column(j)
	}
	t := &Trie{Attrs: append([]string(nil), attrs...), Levels: make([]Level, k), NumTuples: 0}
	if k == 0 || n == 0 {
		for d := 0; d < k; d++ {
			t.Levels[d] = Level{Starts: []int32{0}}
		}
		if k > 0 {
			t.Levels[0].Starts = []int32{0, 0}
		}
		return t
	}

	b.grow(n)

	// Pre-sorted input — the common case on the hot path, since base graph
	// relations are stored sorted and shuffle blocks arrive as sorted runs
	// — is recognised by the first marking pass and needs no sort.
	first := b.first[:n]
	idx := b.idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	if !markFirstDiffs(first, idx, pcols) {
		idx = b.sortRows(idx, pcols)
		markFirstDiffs(first, idx, pcols)
	}

	// Counting pass: nodes[d] = rows with first ≤ d = trie nodes at level d.
	nodes := make([]int32, k)
	for i := 0; i < n; i++ {
		if f := first[i]; f < int32(k) {
			nodes[f]++
		}
	}
	for d := 1; d < k; d++ {
		nodes[d] += nodes[d-1]
	}
	t.NumTuples = int(nodes[k-1])

	for d := 0; d < k; d++ {
		parents := int32(1)
		if d > 0 {
			parents = nodes[d-1]
		}
		t.Levels[d].Vals = make([]Value, 0, nodes[d])
		t.Levels[d].Starts = make([]int32, 0, parents+1)
	}
	t.Levels[0].Starts = append(t.Levels[0].Starts, 0)

	// Fill, level-major: creating a node at level d-1 opens a fresh child
	// range at level d (its start recorded before the row's own value
	// lands); a row with first-difference f contributes a value to every
	// level ≥ f. Each level reads exactly one column.
	for d := 0; d < k; d++ {
		lvl := &t.Levels[d]
		col := pcols[d]
		if d == 0 {
			for i := 0; i < n; i++ {
				if first[i] == 0 {
					lvl.Vals = append(lvl.Vals, col[idx[i]])
				}
			}
			continue
		}
		df := int32(d)
		for i := 0; i < n; i++ {
			f := first[i]
			if f < df {
				lvl.Starts = append(lvl.Starts, int32(len(lvl.Vals)))
			}
			if f <= df {
				lvl.Vals = append(lvl.Vals, col[idx[i]])
			}
		}
	}
	for d := 0; d < k; d++ {
		t.Levels[d].Starts = append(t.Levels[d].Starts, int32(len(t.Levels[d].Vals)))
	}
	t.Root = newDirectory(t.Levels[0].Vals)
	return t
}

// markFirstDiffs sets first[i] to the first level where row idx[i] differs
// from row idx[i-1] (len(pcols) means duplicate; first[0] = 0, the first
// row opens a node at every level). It stops and reports false at the first
// pair that is out of lexicographic order.
func markFirstDiffs(first, idx []int32, pcols [][]Value) bool {
	first[0] = 0
	for i := 1; i < len(idx); i++ {
		a, c := idx[i-1], idx[i]
		f := int32(len(pcols))
		for d, col := range pcols {
			if col[a] != col[c] {
				if col[c] < col[a] {
					return false
				}
				f = int32(d)
				break
			}
		}
		first[i] = f
	}
	return true
}

// grow sizes the reusable scratch for n rows.
func (b *Builder) grow(n int) {
	if cap(b.idx) < n {
		b.idx = make([]int32, n)
		b.tmpIdx = make([]int32, n)
		b.keys = make([]uint64, n)
		b.tmpKeys = make([]uint64, n)
		b.first = make([]int32, n)
	}
}

// sortRows reorders idx (the identity permutation on entry) so that it lists
// the rows lexicographically by the level columns. Small inputs use insertion sort; larger ones an LSD
// radix sort (stable byte passes per column, last column first), skipping
// byte positions that are constant across the column. The key gather for
// level c reads the single contiguous column pcols[c].
func (b *Builder) sortRows(idx []int32, pcols [][]Value) []int32 {
	n := len(idx)
	if n < 48 {
		insertionSortRows(idx, pcols)
		return idx
	}
	keys := b.keys[:n]
	tmpIdx := b.tmpIdx[:n]
	tmpKeys := b.tmpKeys[:n]
	for c := len(pcols) - 1; c >= 0; c-- {
		col := pcols[c]
		min, max := ^uint64(0), uint64(0)
		for i, r := range idx {
			u := uint64(col[r]) ^ signFlip
			keys[i] = u
			if u < min {
				min = u
			}
			if u > max {
				max = u
			}
		}
		if min == max {
			continue
		}
		idx, tmpIdx, keys, tmpKeys = radixPasses(idx, tmpIdx, keys, tmpKeys, min, max)
	}
	return idx
}

// radixPasses runs the stable LSD byte passes over keys (skipping byte
// positions constant across [min, max]) and returns the rotated buffers.
func radixPasses(idx, tmpIdx []int32, keys, tmpKeys []uint64, min, max uint64) ([]int32, []int32, []uint64, []uint64) {
	// Bytes strictly above the highest differing byte are constant.
	hi := 0
	for s := 1; s < 8; s++ {
		if (min >> (8 * s)) != (max >> (8 * s)) {
			hi = s
		}
	}
	for s := 0; s <= hi; s++ {
		shift := uint(8 * s)
		var counts [256]int32
		for _, u := range keys {
			counts[(u>>shift)&0xff]++
		}
		var sum int32
		for v := 0; v < 256; v++ {
			cnt := counts[v]
			counts[v] = sum
			sum += cnt
		}
		for i, u := range keys {
			p := counts[(u>>shift)&0xff]
			counts[(u>>shift)&0xff] = p + 1
			tmpIdx[p] = idx[i]
			tmpKeys[p] = u
		}
		idx, tmpIdx = tmpIdx, idx
		keys, tmpKeys = tmpKeys, keys
	}
	return idx, tmpIdx, keys, tmpKeys
}

// insertionSortRows sorts idx by lexicographic row comparison; used for the
// tiny relations where radix setup costs more than it saves.
func insertionSortRows(idx []int32, pcols [][]Value) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i - 1
		for j >= 0 && rowLess(pcols, x, idx[j]) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
}

func rowLess(pcols [][]Value, a, b int32) bool {
	for _, col := range pcols {
		va, vb := col[a], col[b]
		if va != vb {
			return va < vb
		}
	}
	return false
}
