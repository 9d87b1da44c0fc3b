package relation

import (
	"math/bits"
	"slices"
)

// Index groups the rows of a set of key columns by key. It is the one
// lookup structure under HashJoin, Semijoin and BigJoin's propose round:
// build it over one side's key columns, then ask which group a row of the
// other side falls in and read that group's rows.
//
// Layout (CSR, four int32 slices, nothing allocated per row or per key):
// the distinct keys sit in a power-of-two open-addressing table (slots,
// linear probing) addressed by a 64-bit mix of the key columns; group g is
// identified by its first row rep[g], and its rows are the contiguous,
// ascending run rows[off[g]:off[g+1]]. Groups are numbered in order of
// first appearance. A hub key costs one slot however many rows carry it.
//
// Lookups compare the key columns themselves, so the index is exact under
// any hash collision; the mix only decides how far a probe walks.
type Index struct {
	cols  [][]Value // the indexed key columns, shared with the caller
	shift uint      // 64 - log2(len(slots))
	slots []int32   // group id + 1; 0 marks an empty slot
	rep   []int32
	off   []int32
	rows  []int32
}

// NewIndex indexes rows [0, n) of keyCols (every column at least n long).
// The columns are read, not copied, and must not change while the index is
// in use. With no key columns every row carries the same (empty) key: one
// group of n rows, which is how a join without shared attributes becomes
// the cross product.
func NewIndex(keyCols [][]Value, n int) *Index {
	// At most half the slots are taken even when every row is its own key.
	tableBits := uint(0)
	if n > 0 {
		tableBits = uint(bits.Len(uint(2*n - 1)))
	}
	return newIndex(keyCols, n, tableBits)
}

// newIndex builds the index with a table of 1<<tableBits slots, which must
// exceed the number of distinct keys (a probe stops at an empty slot).
// Count, then fill: one pass assigns every row its group and counts the
// groups' sizes, so rep, off and rows are allocated once at exact size.
func newIndex(keyCols [][]Value, n int, tableBits uint) *Index {
	ix := &Index{cols: keyCols, shift: 64 - tableBits, slots: make([]int32, 1<<tableBits)}
	mask := uint64(len(ix.slots) - 1)
	ix.rows = make([]int32, n)
	group := make([]int32, n) // each row's group, dropped after the fill
	// Until the groups are counted, rows[g] holds group g's first row.
	groups := int32(0)
	for i := 0; i < n; i++ {
		for s := ix.home(keyCols, i); ; s = (s + 1) & mask {
			g := ix.slots[s] - 1
			if g < 0 {
				ix.slots[s] = groups + 1
				ix.rows[groups] = int32(i)
				group[i] = groups
				groups++
				break
			}
			if sameKey(keyCols, i, keyCols, int(ix.rows[g])) {
				group[i] = g
				break
			}
		}
	}
	ix.rep = slices.Clone(ix.rows[:groups])
	ix.off = make([]int32, groups+1)
	for _, g := range group {
		ix.off[g+1]++
	}
	for g := int32(0); g < groups; g++ {
		ix.off[g+1] += ix.off[g]
	}
	// Scatter rows in ascending order, using off[g] as group g's cursor;
	// afterwards off[g] is g's end, so shift the offsets back by one group.
	for i, g := range group {
		ix.rows[ix.off[g]] = int32(i)
		ix.off[g]++
	}
	copy(ix.off[1:], ix.off[:groups])
	ix.off[0] = 0
	return ix
}

// home is the first slot a row's key probes.
//
// Every build side reaches a worker pre-partitioned by HashValue (splitmix64
// finalizer, % parts) or HashTuple (a multiply–xorshift step per value,
// high word of state × parts), so its keys agree on one residue of the
// former or one slice of the latter's range. A table addressed by either
// function's bits would use only 1/parts of its slots. This mix shares
// neither function's constants or steps and takes the high bits of a
// product, which depend on every bit of the key.
func (ix *Index) home(cols [][]Value, i int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = (h ^ uint64(c[i])) * 0x9fb21c651e98df25
		h ^= h >> 32
	}
	return (h * 0x9e3779b97f4a7c15) >> ix.shift
}

// sameKey reports whether row i of a and row j of b hold equal keys.
func sameKey(a [][]Value, i int, b [][]Value, j int) bool {
	for c := range a {
		if a[c][i] != b[c][j] {
			return false
		}
	}
	return true
}

// Groups returns the number of distinct keys.
func (ix *Index) Groups() int { return len(ix.rep) }

// Lookup returns the group whose key equals row i of cols (the probing
// side's key columns, in the order the index was built on), or -1.
func (ix *Index) Lookup(cols [][]Value, i int) int32 {
	mask := uint64(len(ix.slots) - 1)
	for s := ix.home(cols, i); ; s = (s + 1) & mask {
		g := ix.slots[s] - 1
		if g < 0 || sameKey(cols, i, ix.cols, int(ix.rep[g])) {
			return g
		}
	}
}

// Rows returns group g's rows in ascending order (read-only).
func (ix *Index) Rows(g int32) []int32 { return ix.rows[ix.off[g]:ix.off[g+1]] }
