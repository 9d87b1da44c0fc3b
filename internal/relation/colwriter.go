package relation

import "fmt"

// ColumnWriter is the batched columnar result sink of the join pipeline: it
// appends result tuples to a relation column-wise, exploiting the run
// structure of worst-case-optimal join output — long stretches of tuples
// share every value except the deepest attribute. A caller announces the
// shared binding prefix once (BeginRun) and then bulk-appends only the
// varying last column (AppendRun); the writer replicates the prefix values
// with tight fill loops instead of copying a full row per tuple.
//
// The target relation is kept consistent after every append, so it can be
// read, merged or encoded at any point. The writer owns the relation's
// column storage while attached: do not mutate the relation through other
// methods until the writer is dropped.
//
// ColumnWriter satisfies the leapfrog result-sink contract (BeginRun /
// AppendRun over []Value) directly — no per-tuple adapter sits between the
// leaf intersection and the output columns.
type ColumnWriter struct {
	r      *Relation
	cols   [][]Value
	prefix []Value
	rows   int
}

// NewColumnWriter attaches a writer to r. r may already hold tuples (new
// runs append after them).
func NewColumnWriter(r *Relation) *ColumnWriter {
	if len(r.Attrs) == 0 {
		panic(fmt.Sprintf("relation %q: ColumnWriter needs at least one attribute", r.Name))
	}
	return &ColumnWriter{r: r, cols: r.cols, rows: r.Len()}
}

// Rows returns the number of tuples appended so far (including any the
// relation held before the writer attached).
func (w *ColumnWriter) Rows() int { return w.rows }

// Reserve grows every column's capacity to hold at least n additional
// tuples, so a caller that knows the output size pays one allocation.
func (w *ColumnWriter) Reserve(n int) {
	for j, col := range w.cols {
		if cap(col)-len(col) < n {
			grown := make([]Value, len(col), len(col)+n)
			copy(grown, col)
			w.cols[j] = grown
		}
	}
}

// BeginRun records the binding prefix shared by subsequent AppendRun
// calls: the values of every attribute except the last. prefix may alias a
// caller buffer reused across runs; the writer copies it.
func (w *ColumnWriter) BeginRun(prefix []Value) {
	if len(prefix) != len(w.r.Attrs)-1 {
		panic(fmt.Sprintf("relation %q: run prefix arity %d != %d",
			w.r.Name, len(prefix), len(w.r.Attrs)-1))
	}
	// A prefix is a value or two and there is one per run: a loop, not the
	// call append makes.
	w.prefix = w.prefix[:0]
	for _, v := range prefix {
		w.prefix = append(w.prefix, v)
	}
}

// AppendRun appends one tuple per value in vals: the current prefix in the
// leading columns, vals in the last. vals may alias trie storage or caller
// scratch; the writer copies. Growth is amortized (doubling), and column
// lengths always equal the exact row count.
func (w *ColumnWriter) AppendRun(vals []Value) {
	n := len(vals)
	if n == 0 {
		return
	}
	k := len(w.cols)
	for j, p := range w.prefix {
		col := extendCol(w.cols[j], n)
		fill := col[len(col)-n:]
		for i := range fill {
			fill[i] = p
		}
		w.cols[j] = col
	}
	last := extendCol(w.cols[k-1], n)
	copy(last[len(last)-n:], vals)
	w.cols[k-1] = last
	w.rows += n
}

// extendCol grows col by n slots, ready to be overwritten. Out of capacity it
// at least doubles (growColumn): append's own schedule falls to 1.25× for
// large slices, and a run-appended column climbing it from empty allocated
// over five times its final size (TestRunAppendAllocCeiling).
func extendCol(col []Value, n int) []Value {
	need := len(col) + n
	if need > cap(col) {
		col = growColumn(col, need)
	}
	return col[:need]
}
