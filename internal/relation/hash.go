package relation

import "math/bits"

// HashValue maps a value to a bucket in [0, parts). It is the hash function
// h_A of HCube (§II-A): every site must agree on it, so it is a pure
// function of the value. A 64-bit finalizer (splitmix64) avoids the
// pathological collisions a plain modulo would produce on consecutive vertex
// ids, which matters because graph datasets number vertices densely.
func HashValue(v Value, parts int) int {
	if parts <= 1 {
		return 0
	}
	x := uint64(v)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(parts))
}

// HashTuple combines all values of a tuple into one bucket in [0, parts);
// it places the rows of every multi-column hash partition (the multi-round
// baselines' intermediates, BigJoin's bindings).
//
// One multiply–xorshift step per value (tupleStep), a finalizer and a
// multiply-high range reduction (tupleBucket): a word at a time, no
// division. What must stay true of it, whatever the constants:
//
//   - it is a pure function of the tuple's values in order — every site
//     partitions with it, and senders and receivers never exchange the
//     bucket, only agree on it;
//   - it is order-sensitive ((a,b) and (b,a) are different keys) and
//     spreads dense ids and low-entropy second columns evenly over any
//     parts, not only powers of two (TestHashTupleRangeAndSpread);
//   - it shares no step with Index.home: every build side reaches its
//     index already selected by this function, and an index that reused
//     its bits would crowd one partition's keys into 1/parts of the table
//     (TestIndexIndependentOfPartitionHash).
func HashTuple(t Tuple, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := tupleSeed
	for _, v := range t {
		h = tupleStep(h, v)
	}
	return tupleBucket(h, parts)
}

const (
	tupleSeed = uint64(0x243f6a8885a308d3)
	tupleMul  = uint64(0xd6e8feb86659fd93)
)

// tupleStep folds one value into HashTuple's running state.
func tupleStep(h uint64, v Value) uint64 {
	h = (h + uint64(v)) * tupleMul
	return h ^ h>>29
}

// tupleBucket finishes HashTuple's state and reduces it to [0, parts): the
// high word of state × parts, which takes the product's best-mixed bits
// and costs a multiply where a modulo costs a division.
func tupleBucket(h uint64, parts int) int {
	h *= tupleMul
	h ^= h >> 32
	hi, _ := bits.Mul64(h, uint64(parts))
	return int(hi)
}

// PartitionBy splits r into parts relations by hashing the listed columns.
// Tuples with equal values on cols land in the same partition — the
// contract hash joins rely on — and every partition keeps its rows in
// input order. The parts are the caller's: they alias one fresh backing
// per column, each capped at its own rows.
func (r *Relation) PartitionBy(cols []int, parts int) []*Relation {
	n := r.Len()
	back := make([][]Value, len(r.cols))
	for j := range back {
		back[j] = make([]Value, n)
	}
	return r.PartitionInto(cols, parts, make([]int32, n), back)
}

// PartitionInto is PartitionBy in memory the caller lends: ids is row-id
// scratch and back one backing per column, each at least r.Len() long,
// contents arbitrary. The parts alias back and are valid until the caller
// reuses it; ids is free again on return.
func (r *Relation) PartitionInto(cols []int, parts int, ids []int32, back [][]Value) []*Relation {
	ids = ids[:r.Len()]
	r.partitionIDs(cols, parts, ids)
	off := ScatterGroups(r.cols, ids, parts, back)
	out := make([]*Relation, parts)
	for p := range out {
		out[p] = FromColumns(r.Name, r.Attrs, RowRange(back, int(off[p]), int(off[p+1])))
	}
	return out
}

// partitionIDs hashes every row's key into ids[i] ∈ [0, parts), straight
// from the key columns: HashValue over a single column, HashTuple's steps
// over several.
func (r *Relation) partitionIDs(cols []int, parts int, ids []int32) {
	if parts <= 1 || len(cols) == 0 {
		p := int32(HashTuple(nil, parts))
		for i := range ids {
			ids[i] = p
		}
		return
	}
	first := r.cols[cols[0]]
	if len(cols) == 1 {
		for i, v := range first {
			ids[i] = int32(HashValue(v, parts))
		}
		return
	}
	rest := make([][]Value, len(cols)-1)
	for j, c := range cols[1:] {
		rest[j] = r.cols[c]
	}
	for i, v := range first {
		h := tupleStep(tupleSeed, v)
		for _, col := range rest {
			h = tupleStep(h, col[i])
		}
		ids[i] = int32(tupleBucket(h, parts))
	}
}

// ScatterGroups reorders rows so that every group's rows are contiguous
// and in input order — the one grouping scatter under PartitionBy and the
// HCube shuffle's block bucketing. ids[i] ∈ [0, groups) names row i's
// group; back holds one backing per column of cols, each at least len(ids)
// long. On return group g's rows are back[j][off[g]:off[g+1]] and ids
// holds each row's destination slot.
//
// Ids → counts → prefix sums → slot: the slot of a row is computed once,
// and every column then scatters through the slot array with no
// dependence between iterations (a cursor per group, advanced per column,
// is a store-to-load chain on the cursor).
func ScatterGroups(cols [][]Value, ids []int32, groups int, back [][]Value) (off []int32) {
	off = make([]int32, groups+1)
	for _, g := range ids {
		off[g+1]++
	}
	for g := 1; g <= groups; g++ {
		off[g] += off[g-1]
	}
	// off[g] doubles as group g's cursor during the slot pass and ends it
	// one group ahead; shift back afterwards.
	for i, g := range ids {
		ids[i] = off[g]
		off[g]++
	}
	copy(off[1:], off[:groups])
	off[0] = 0
	for j, col := range cols {
		dst := back[j][:len(ids)]
		for i, slot := range ids {
			dst[slot] = col[i]
		}
	}
	return off
}

// RowRange returns rows [lo, hi) of cols, each column capped at hi so an
// append to the range reallocates instead of overwriting the rows after it.
func RowRange(cols [][]Value, lo, hi int) [][]Value {
	out := make([][]Value, len(cols))
	for j, c := range cols {
		out[j] = c[lo:hi:hi]
	}
	return out
}
