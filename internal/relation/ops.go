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

// keyCols returns r's columns for the named attributes, in that order; op
// names the caller for the panic a missing attribute raises.
func (r *Relation) keyCols(op string, attrs []string) [][]Value {
	cols := make([][]Value, len(attrs))
	for j, a := range attrs {
		c := r.AttrIndex(a)
		if c < 0 {
			panic(fmt.Sprintf("%s: attribute %q missing from %q", op, a, r.Name))
		}
		cols[j] = r.cols[c]
	}
	return cols
}

// Semijoin returns the tuples of r that join with at least one tuple of s on
// the shared attributes `on` (which must exist in both schemas), in r's row
// order. This is BigJoin's verify filter.
func (r *Relation) Semijoin(s *Relation, on []string) *Relation {
	return r.keepIndexed(r.Name, r.keyCols("semijoin", on), NewIndex(s.keyCols("semijoin", on), s.Len()))
}

// keepIndexed returns, under the given name, the rows of r whose key (r's
// columns key) is present in ix.
func (r *Relation) keepIndexed(name string, key [][]Value, ix *Index) *Relation {
	n := r.Len()
	keep := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if ix.Lookup(key, i) >= 0 {
			keep = append(keep, int32(i))
		}
	}
	return r.gather(name, keep)
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
//
// Count, then fill: the smaller side is indexed, one pass over the probe
// side records each row's group and sums the groups' sizes — so an output
// over the limit is refused before any of it is allocated — and every
// output column is then allocated once at its exact size and filled in
// probe row order, build row order within a probe row.
func hashJoin(r, s *Relation, limit int) *Relation {
	shared := SharedAttrs(r, s)
	// Build side: the smaller input.
	build, probe, swapped := s, r, false
	if r.Len() < s.Len() {
		build, probe, swapped = r, s, true
	}
	// Output schema: r's attributes, then s's non-shared ones.
	outAttrs := make([]string, 0, len(r.Attrs)+len(s.Attrs)-len(shared))
	outAttrs = append(outAttrs, r.Attrs...)
	srcCols := make([][]Value, 0, cap(outAttrs))
	srcCols = append(srcCols, r.cols...)
	for j, a := range s.Attrs {
		if r.AttrIndex(a) < 0 {
			outAttrs = append(outAttrs, a)
			srcCols = append(srcCols, s.cols[j])
		}
	}
	out := &Relation{Name: "(" + r.Name + "⋈" + s.Name + ")", Attrs: outAttrs, cols: make([][]Value, len(outAttrs))}
	if build.Len() == 0 || probe.Len() == 0 {
		return out
	}
	ix := NewIndex(build.keyCols("hashJoin", shared), build.Len())
	probeKey := probe.keyCols("hashJoin", shared)
	group := make([]int32, probe.Len())
	total := 0
	for i := range group {
		g := ix.Lookup(probeKey, i)
		group[i] = g
		if g < 0 {
			continue
		}
		total += len(ix.Rows(g))
		if limit > 0 && total > limit {
			return nil
		}
	}
	// Keys are compared exactly, so shared attrs are equal on every pair.
	for j, src := range srcCols {
		col := make([]Value, total)
		// r's columns come first; r is the build side exactly when swapped.
		fromBuild := (j < len(r.cols)) == swapped
		w := 0
		for i, g := range group {
			if g < 0 {
				continue
			}
			run := ix.Rows(g)
			if fromBuild {
				for _, m := range run {
					col[w] = src[m]
					w++
				}
				continue
			}
			v := src[i]
			for end := w + len(run); w < end; w++ {
				col[w] = v
			}
		}
		out.cols[j] = col
	}
	return out
}
