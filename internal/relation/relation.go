// Package relation implements the relational substrate of ADJ: schemas,
// tuples stored column-major (one value slice per attribute), and the
// operations the join engines need (sort, dedup, project, hash join,
// semijoin, hash partitioning, the wire codec).
//
// Values are int64. A Relation is a multiset of fixed-arity tuples over a
// named schema; most operations return new relations and leave the receiver
// untouched, matching the immutable dataflow style of the distributed
// runtime (package cluster).
//
// Every key lookup — HashJoin, Semijoin and BigJoin's propose round in
// package engine — goes through one structure, Index: the
// rows of some key columns grouped by key, integer keys compared as
// integers, each key's rows one contiguous run. Its consumers count their
// output from the runs before they allocate it, so an output limit is
// enforced before anything is materialized and a call allocates a constant
// number of objects. internal/engine/README.md ("How the join kernels
// index") has the layout and the reasons.
package relation

import (
	"fmt"
	"slices"
	"strings"
)

// Value is the domain of every attribute. Graph datasets use vertex ids.
type Value = int64

// Tuple is a single row, always a copy: a relation stores no rows to alias.
type Tuple = []Value

// Relation is a multiset of tuples with a fixed schema.
//
// Tuples are stored column-major: cols[j] holds attribute Attrs[j] of every
// tuple in row order, and that is the only backing store. The trie
// builder's radix passes, the shuffle codec's per-column delta runs, the
// hash partitioner and the hash joins all scan these columns directly.
// The row-shaped calls (Append, AppendTuple, FromTuples, Tuple) are
// conveniences that scatter into or gather from the columns. No reading
// method writes the receiver, so any number of goroutines may read one
// relation concurrently.
//
// The zero value is an empty relation of arity 0; every constructor keeps
// len(cols) == len(Attrs).
type Relation struct {
	Name  string
	Attrs []string
	cols  [][]Value
}

// New returns an empty relation with the given name and schema.
func New(name string, attrs ...string) *Relation {
	return &Relation{Name: name, Attrs: append([]string(nil), attrs...), cols: make([][]Value, len(attrs))}
}

// NewWithCapacity returns an empty relation pre-sized for n tuples.
func NewWithCapacity(name string, n int, attrs ...string) *Relation {
	r := New(name, attrs...)
	for j := range r.cols {
		r.cols[j] = make([]Value, 0, n)
	}
	return r
}

// FromTuples builds a relation from explicit rows. Rows are copied.
func FromTuples(name string, attrs []string, rows [][]Value) *Relation {
	r := NewWithCapacity(name, len(rows), attrs...)
	for _, row := range rows {
		r.AppendTuple(row)
	}
	return r
}

// FromEdges builds a binary relation over (src, dst) attribute names from an
// edge list, the representation used for all graph datasets in the paper.
func FromEdges(name, srcAttr, dstAttr string, edges [][2]Value) *Relation {
	src := make([]Value, len(edges))
	dst := make([]Value, len(edges))
	for i, e := range edges {
		src[i], dst[i] = e[0], e[1]
	}
	return FromColumns(name, []string{srcAttr, dstAttr}, [][]Value{src, dst})
}

// checkColumns validates a caller-supplied column batch: one slice per
// attribute, all the same length. Shared by FromColumns, SetColumns and
// AppendColumns so the contract cannot drift between them.
func checkColumns(name string, nattrs int, cols [][]Value) {
	if len(cols) != nattrs {
		panic(fmt.Sprintf("relation %q: %d columns != %d attrs", name, len(cols), nattrs))
	}
	for j := 1; j < len(cols); j++ {
		if len(cols[j]) != len(cols[0]) {
			panic(fmt.Sprintf("relation %q: column %d length %d != column 0 length %d", name, j, len(cols[j]), len(cols[0])))
		}
	}
}

// FromColumns builds a relation taking ownership of cols (one slice per
// attribute, all the same length).
func FromColumns(name string, attrs []string, cols [][]Value) *Relation {
	checkColumns(name, len(attrs), cols)
	return &Relation{Name: name, Attrs: append([]string(nil), attrs...), cols: cols}
}

// SetColumns replaces the backing store with the given columns. Takes
// ownership of cols.
func (r *Relation) SetColumns(cols [][]Value) {
	checkColumns(r.Name, len(r.Attrs), cols)
	r.cols = cols
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if len(r.cols) == 0 {
		return 0
	}
	return len(r.cols[0])
}

// Columns returns the per-column value slices (read-only by convention).
// Column j holds attribute Attrs[j] for every tuple in row order.
func (r *Relation) Columns() [][]Value { return r.cols }

// Column returns the values of column j (read-only by convention).
func (r *Relation) Column(j int) []Value { return r.cols[j] }

// Tuple gathers the i-th row into a fresh slice. It is a convenience for
// tests, tools and one-off lookups; loops over a relation read Columns.
func (r *Relation) Tuple(i int) Tuple {
	t := make(Tuple, len(r.cols))
	for j, col := range r.cols {
		t[j] = col[i]
	}
	return t
}

// Append adds one row. It panics if the arity does not match the schema:
// that is always a programming error, never a data error.
func (r *Relation) Append(vals ...Value) { r.AppendTuple(vals) }

// AppendTuple adds one row, scattering it into the columns.
func (r *Relation) AppendTuple(t Tuple) {
	if len(t) != len(r.Attrs) {
		panic(fmt.Sprintf("relation %q: append arity %d != schema arity %d", r.Name, len(t), len(r.Attrs)))
	}
	for j, v := range t {
		r.cols[j] = append(r.cols[j], v)
	}
}

// AppendColumns appends one batch of column slices (aligned with Attrs,
// equal lengths); the batch is copied.
func (r *Relation) AppendColumns(cols [][]Value) {
	checkColumns(r.Name, len(r.Attrs), cols)
	for j := range r.cols {
		r.cols[j] = append(r.cols[j], cols[j]...)
	}
}

// AppendAll concatenates all tuples of s (same arity required) onto r —
// the path shuffle receivers take when folding decoded blocks into cube
// databases.
func (r *Relation) AppendAll(s *Relation) {
	if len(s.Attrs) != len(r.Attrs) {
		panic(fmt.Sprintf("relation %q: appendAll arity %d != %d", r.Name, len(s.Attrs), len(r.Attrs)))
	}
	r.AppendColumns(s.cols)
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	cols := make([][]Value, len(r.cols))
	for j, c := range r.cols {
		cols[j] = slices.Clone(c)
	}
	return &Relation{Name: r.Name, Attrs: slices.Clone(r.Attrs), cols: cols}
}

// Renamed returns a shallow copy with a different name: column contents
// are shared, but the Attrs slice is copied (like Clone) so a later schema
// mutation on either relation cannot alias the other, and so is the slice
// of column headers, so length-changing operations on one alias (append,
// dedup) leave the other's row count alone.
func (r *Relation) Renamed(name string) *Relation {
	return &Relation{Name: name, Attrs: append([]string(nil), r.Attrs...), cols: append([][]Value(nil), r.cols...)}
}

// AttrIndex returns the position of attribute a in the schema, or -1.
func (r *Relation) AttrIndex(a string) int {
	for i, x := range r.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// HasAttr reports whether a is part of the schema.
func (r *Relation) HasAttr(a string) bool { return r.AttrIndex(a) >= 0 }

// SizeBytes returns the in-memory payload size (8 bytes per value), the unit
// the cost model charges for communication.
func (r *Relation) SizeBytes() int64 { return int64(r.Len()*r.Arity()) * 8 }

// String renders a compact human-readable form (used by tests and the CLI).
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d tuples]", r.Name, strings.Join(r.Attrs, ","), r.Len())
	n := r.Len()
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\n  %v", r.Tuple(i))
	}
	if r.Len() > n {
		fmt.Fprintf(&b, "\n  ... (%d more)", r.Len()-n)
	}
	return b.String()
}

// Sort orders tuples lexicographically in place and returns the receiver.
func (r *Relation) Sort() *Relation { return r.SortByColumns(nil) }

// SortByColumns orders tuples in place by the given column permutation:
// first compare column cols[0], then cols[1], etc. Columns not listed keep
// their relative influence last in schema order to make the sort total.
//
// A unary relation sorts its one column directly. Wider relations sort a
// row permutation — comparisons resolve in the first columns almost
// always — and then apply it to each column with one gather pass.
func (r *Relation) SortByColumns(cols []int) *Relation {
	k := len(r.Attrs)
	n := r.Len()
	if n < 2 {
		return r
	}
	if k == 1 {
		slices.Sort(r.cols[0])
		return r
	}
	keys := make([][]Value, 0, k)
	listed := make([]bool, k)
	for _, c := range cols {
		if !listed[c] {
			listed[c] = true
			keys = append(keys, r.cols[c])
		}
	}
	for c, col := range r.cols {
		if !listed[c] {
			keys = append(keys, col)
		}
	}
	byKeys := func(a, b int32) int {
		for _, c := range keys {
			if c[a] != c[b] {
				if c[a] < c[b] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	// Blocks cut from a sorted relation arrive sorted; leave those alone.
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = byKeys(int32(i-1), int32(i)) <= 0
	}
	if sorted {
		return r
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, byKeys)
	tmp := make([]Value, n)
	for _, col := range r.cols {
		for i, p := range idx {
			tmp[i] = col[p]
		}
		copy(col, tmp)
	}
	return r
}

// Dedup removes duplicate tuples in place. The relation must be sorted (in
// any total order). Returns the receiver.
func (r *Relation) Dedup() *Relation {
	n := r.Len()
	if n < 2 {
		return r
	}
	cols := r.cols
	w := 1
	for i := 1; i < n; i++ {
		dup := true
		for _, c := range cols {
			if c[i] != c[w-1] {
				dup = false
				break
			}
		}
		if dup {
			continue
		}
		if w != i {
			for _, c := range cols {
				c[w] = c[i]
			}
		}
		w++
	}
	for j := range cols {
		cols[j] = cols[j][:w]
	}
	return r
}

// SortDedup sorts lexicographically then removes duplicates.
func (r *Relation) SortDedup() *Relation { return r.Sort().Dedup() }

// Equal reports whether two relations have identical schema and identical
// tuple sequences (order-sensitive; sort both first for multiset equality).
func (r *Relation) Equal(s *Relation) bool {
	return slices.Equal(r.Attrs, s.Attrs) && slices.EqualFunc(r.cols, s.cols, slices.Equal[[]Value])
}
