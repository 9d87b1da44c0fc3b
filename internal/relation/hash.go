package relation

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
// used to hash-partition intermediate results in the multi-round baselines.
func HashTuple(t Tuple, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint64(1469598103934665603) // FNV offset basis
	for _, v := range t {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	return int(h % uint64(parts))
}

// PartitionBy splits r into parts relations by hashing the listed columns.
// Tuples with equal values on cols land in the same partition — the
// contract hash joins rely on.
//
// Two passes: hash every row into a partition id (a pure column scan for a
// single-column key), count, then scatter each column exactly once into
// exact-size backing.
func (r *Relation) PartitionBy(cols []int, parts int) []*Relation {
	n := r.Len()
	part, counts := r.partitionIDs(cols, parts, n)
	outCols := make([][][]Value, parts)
	for p := range outCols {
		outCols[p] = make([][]Value, len(r.cols))
		for j := range outCols[p] {
			outCols[p][j] = make([]Value, counts[p])
		}
	}
	cur := make([]int32, parts)
	for j, col := range r.cols {
		clear(cur)
		for i, p := range part {
			outCols[p][j][cur[p]] = col[i]
			cur[p]++
		}
	}
	out := make([]*Relation, parts)
	for p := range out {
		out[p] = FromColumns(r.Name, r.Attrs, outCols[p])
	}
	return out
}

// partitionIDs hashes every row into [0, parts) and returns per-row ids
// plus per-partition counts. Single-column keys hash one contiguous
// column; multi-column keys gather into a scratch tuple (the FNV
// combination is order-sensitive, so it must see the whole key).
func (r *Relation) partitionIDs(cols []int, parts, n int) ([]int32, []int32) {
	part := make([]int32, n)
	counts := make([]int32, parts)
	if parts <= 1 {
		if parts == 1 {
			counts[0] = int32(n)
		}
		return part, counts
	}
	if len(cols) == 1 {
		for i, v := range r.cols[cols[0]] {
			p := int32(HashValue(v, parts))
			part[i] = p
			counts[p]++
		}
		return part, counts
	}
	kbuf := make([]Value, len(cols))
	for i := range part {
		for j, c := range cols {
			kbuf[j] = r.cols[c][i]
		}
		p := int32(HashTuple(kbuf, parts))
		part[i] = p
		counts[p]++
	}
	return part, counts
}
