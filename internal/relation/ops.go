package relation

import (
	"errors"
	"fmt"
	"slices"
)

// Project returns a new relation containing only the given attributes, in
// the given order, with duplicates removed (set semantics, as required for
// the val(A) intersections of the sampler and for trie construction).
func (r *Relation) Project(attrs ...string) *Relation {
	return r.ProjectMulti(attrs...).SortDedup()
}

// ProjectMulti keeps duplicates (bag semantics); used where counts matter.
// Projection costs one memcpy per kept attribute.
func (r *Relation) ProjectMulti(attrs ...string) *Relation {
	outCols := make([][]Value, len(attrs))
	for i, a := range attrs {
		j := r.AttrIndex(a)
		if j < 0 {
			panic(fmt.Sprintf("relation %q: project on missing attribute %q", r.Name, a))
		}
		outCols[i] = append([]Value(nil), r.cols[j]...)
	}
	return FromColumns(r.Name+"_proj", attrs, outCols)
}

// gatherCols returns, for every column, its values at the listed rows in
// that order: one exact-size gather per column.
func gatherCols(cols [][]Value, rows []int32) [][]Value {
	out := make([][]Value, len(cols))
	for j, col := range cols {
		oc := make([]Value, len(rows))
		for x, i := range rows {
			oc[x] = col[i]
		}
		out[j] = oc
	}
	return out
}

// gather returns a relation named name holding the listed rows of r.
func (r *Relation) gather(name string, rows []int32) *Relation {
	return FromColumns(name, r.Attrs, gatherCols(r.cols, rows))
}

// Filter returns the tuples for which keep returns true. The tuple passed
// to keep is scratch reused across rows; keep must not retain it.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	row := make(Tuple, len(r.cols))
	var kept []int32
	for i, n := 0, r.Len(); i < n; i++ {
		for j, col := range r.cols {
			row[j] = col[i]
		}
		if keep(row) {
			kept = append(kept, int32(i))
		}
	}
	return r.gather(r.Name+"_filt", kept)
}

// filterColumn returns the tuples whose attribute a satisfies keep.
func (r *Relation) filterColumn(op, a string, keep func(Value) bool) *Relation {
	c := r.AttrIndex(a)
	if c < 0 {
		panic(fmt.Sprintf("relation %q: %s on missing attribute %q", r.Name, op, a))
	}
	var kept []int32
	for i, v := range r.cols[c] {
		if keep(v) {
			kept = append(kept, int32(i))
		}
	}
	return r.gather(r.Name+"_filt", kept)
}

// Select returns tuples whose attribute a equals v.
func (r *Relation) Select(a string, v Value) *Relation {
	return r.filterColumn("select", a, func(x Value) bool { return x == v })
}

// Distinct returns the sorted set of values of attribute a.
func (r *Relation) Distinct(a string) []Value {
	c := r.AttrIndex(a)
	if c < 0 {
		panic(fmt.Sprintf("relation %q: distinct on missing attribute %q", r.Name, a))
	}
	out := slices.Clone(r.cols[c])
	slices.Sort(out)
	return slices.Compact(out)
}

// Semijoin returns the tuples of r that join with at least one tuple of s on
// the shared attributes `on` (which must exist in both schemas). This is the
// database-reduction step of the distributed sampler (§IV of the paper) and
// BigJoin's verify filter.
func (r *Relation) Semijoin(s *Relation, on []string) *Relation {
	ri := make([]int, len(on))
	si := make([]int, len(on))
	for i, a := range on {
		ri[i] = r.AttrIndex(a)
		si[i] = s.AttrIndex(a)
		if ri[i] < 0 || si[i] < 0 {
			panic(fmt.Sprintf("semijoin: attribute %q missing from %q or %q", a, r.Name, s.Name))
		}
	}
	keys := make(map[string]struct{}, s.Len())
	kbuf := make([]Value, len(on))
	for i, n := 0, s.Len(); i < n; i++ {
		keys[s.rowKey(kbuf, si, i)] = struct{}{}
	}
	n := r.Len()
	keep := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if _, ok := keys[r.rowKey(kbuf, ri, i)]; ok {
			keep = append(keep, int32(i))
		}
	}
	return r.gather(r.Name, keep)
}

// rowKey gathers row i's values at columns at into kbuf and returns their
// map key.
func (r *Relation) rowKey(kbuf []Value, at []int, i int) string {
	for j, c := range at {
		kbuf[j] = r.cols[c][i]
	}
	return encodeKey(kbuf)
}

// SemijoinValues keeps tuples whose attribute a takes a value in vals.
func (r *Relation) SemijoinValues(a string, vals []Value) *Relation {
	set := make(map[Value]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return r.filterColumn("semijoinValues", a, func(x Value) bool { _, ok := set[x]; return ok })
}

// SharedAttrs returns the attributes common to both schemas, in r's order.
func SharedAttrs(r, s *Relation) []string {
	var out []string
	for _, a := range r.Attrs {
		if s.HasAttr(a) {
			out = append(out, a)
		}
	}
	return out
}

// ErrTooLarge reports a join whose output exceeded the caller's limit; the
// engines map it to the paper's OOM/timeout failures without paying for
// the full materialization first.
var ErrTooLarge = errors.New("relation: join output limit exceeded")

// HashJoinLimit is HashJoin with an output cap: it aborts with ErrTooLarge
// as soon as the output exceeds limit tuples (limit 0 = unlimited).
func HashJoinLimit(r, s *Relation, limit int) (*Relation, error) {
	out := hashJoin(r, s, limit)
	if out == nil {
		return nil, ErrTooLarge
	}
	return out, nil
}

// HashJoin computes the natural join r ⋈ s with a classic build/probe hash
// join on all shared attributes. It is the kernel of the BinaryJoin baseline
// (the paper's SparkSQL analogue) and of GHD bag pre-computation. The output
// schema is r's attributes followed by s's non-shared attributes.
func HashJoin(r, s *Relation) *Relation {
	return hashJoin(r, s, 0)
}

// hashJoin returns nil when the limit is exceeded. It is the path every
// BinaryJoin intermediate and ADJ bag pre-computation round takes.
func hashJoin(r, s *Relation, limit int) *Relation {
	shared := SharedAttrs(r, s)
	// Build side: the smaller input.
	build, probe := s, r
	swapped := false
	if r.Len() < s.Len() {
		build, probe, swapped = r, s, true
	}
	bi := make([]int, len(shared))
	pi := make([]int, len(shared))
	for i, a := range shared {
		bi[i] = build.AttrIndex(a)
		pi[i] = probe.AttrIndex(a)
	}
	// Output schema and the column picks for each side.
	var outAttrs []string
	outAttrs = append(outAttrs, r.Attrs...)
	var sExtra [][]Value
	for j, a := range s.Attrs {
		if r.AttrIndex(a) < 0 {
			outAttrs = append(outAttrs, a)
			sExtra = append(sExtra, s.cols[j])
		}
	}
	out := New(fmt.Sprintf("(%s⋈%s)", r.Name, s.Name), outAttrs...)
	if build.Len() == 0 || probe.Len() == 0 {
		return out
	}
	ht := make(map[string][]int32, build.Len())
	kbuf := make([]Value, len(shared))
	for i, n := 0, build.Len(); i < n; i++ {
		k := build.rowKey(kbuf, bi, i)
		ht[k] = append(ht[k], int32(i))
	}
	// Matched row pairs, as (row of r, row of s); the output columns are
	// gathered from them one column at a time.
	var rRows, sRows []int32
	for i, n := 0, probe.Len(); i < n; i++ {
		for _, m := range ht[probe.rowKey(kbuf, pi, i)] {
			if swapped {
				rRows, sRows = append(rRows, m), append(sRows, int32(i))
			} else {
				rRows, sRows = append(rRows, int32(i)), append(sRows, m)
			}
			if limit > 0 && len(rRows) > limit {
				return nil
			}
		}
	}
	// Keys are exact encodings, so shared attrs are equal on every pair.
	out.cols = append(gatherCols(r.cols, rRows), gatherCols(sExtra, sRows)...)
	return out
}

// JoinAll left-folds HashJoin over rels; with set-semantics inputs the
// result equals the natural join of all of them.
func JoinAll(rels []*Relation) *Relation {
	if len(rels) == 0 {
		return New("empty")
	}
	acc := rels[0]
	for _, r := range rels[1:] {
		acc = HashJoin(acc, r)
	}
	return acc
}

// CrossCount returns the product of the sizes; a quick upper bound used by
// guards in the test harness.
func CrossCount(rels []*Relation) int64 {
	p := int64(1)
	for _, r := range rels {
		p *= int64(r.Len())
		if p < 0 { // overflow
			return 1 << 62
		}
	}
	return p
}

// encodeKey packs values into a string key for map-based joins. Values are
// written in fixed-width big-endian-ish form so distinct tuples always get
// distinct keys.
func encodeKey(vals []Value) string {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		u := uint64(v)
		o := i * 8
		b[o] = byte(u >> 56)
		b[o+1] = byte(u >> 48)
		b[o+2] = byte(u >> 40)
		b[o+3] = byte(u >> 32)
		b[o+4] = byte(u >> 24)
		b[o+5] = byte(u >> 16)
		b[o+6] = byte(u >> 8)
		b[o+7] = byte(u)
	}
	return string(b)
}
