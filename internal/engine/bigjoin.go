package engine

import (
	"slices"

	"adj/internal/cluster"
	"adj/internal/relation"
)

// proposeRound extends every binding with the candidate values of the
// proposer relation. Bindings travel to the proposer's index partition;
// the proposer relation's fragments are indexed by their bound attributes
// within the same exchange (a self-contained simulation of BigJoin's
// pre-built indexes). Returns the global number of extended bindings.
func proposeRound(c *cluster.Cluster, phase string, prop *relation.Relation, prefix []string, attr string, budget int64) (int64, error) {
	boundAttrs := sharedAttrs(prop.Attrs, prefix)
	idx := exchangeInput{name: prop.Name, attrs: prop.Attrs, cols: attrIdx(prop.Attrs, boundAttrs)}
	binds := exchangeInput{name: "bindings", attrs: prefix, cols: attrIdx(prefix, boundAttrs)}
	if len(boundAttrs) == 0 {
		// Unconstrained: every worker indexes the proposer's whole
		// projection on attr, and the bindings stay where they are.
		idx.attrs, idx.route = []string{attr}, broadcast
		idx.derive = func(r *relation.Relation) *relation.Relation { return r.Project(attr) }
		binds.route = keep
	}
	return coExchange(c, phase, "bindings", []exchangeInput{idx, binds}, func(in []*relation.Relation) (*relation.Relation, error) {
		return extendBindings(in[1], in[0], boundAttrs, attr, budget)
	})
}

// extendBindings is a propose round's local step: every binding is extended
// by the distinct values idx holds for attr among the rows that agree with
// the binding on boundAttrs, in binding order, candidates ascending. With
// no bound attribute every row of idx carries the same (empty) key, so
// every binding gets idx's whole distinct attr column.
//
// Count, then fill: idx is indexed by its bound attributes and each key's
// candidates become one sorted, de-duplicated run inside a single backing
// slice; one pass over the bindings records each one's key and sums the run
// lengths, so proposals over the budget fail with ErrBudget before any
// output is allocated (SparkSQL/BigJoin-style blowups must fail fast); the
// output columns are then reserved once at their exact size and each
// binding extends into a run — the binding repeated over its candidates —
// through the run writer.
func extendBindings(binds, idx *relation.Relation, boundAttrs []string, attr string, budget int64) (*relation.Relation, error) {
	extended := relation.New("bindings", append(slices.Clip(binds.Attrs), attr)...)
	ix := relation.NewIndex(pickCols(idx, boundAttrs), idx.Len())
	// cands[candOff[g]:candOff[g+1]] are key g's candidates.
	cands := make([]relation.Value, 0, idx.Len())
	candOff := make([]int32, ix.Groups()+1)
	attrCol := idx.Column(idx.AttrIndex(attr))
	for g := 0; g < ix.Groups(); g++ {
		lo := len(cands)
		for _, row := range ix.Rows(int32(g)) {
			cands = append(cands, attrCol[row])
		}
		slices.Sort(cands[lo:])
		cands = cands[:lo+len(slices.Compact(cands[lo:]))]
		candOff[g+1] = int32(len(cands))
	}

	bindKey := pickCols(binds, boundAttrs)
	group := make([]int32, binds.Len())
	total := int64(0)
	for i := range group {
		g := ix.Lookup(bindKey, i)
		group[i] = g
		if g < 0 {
			continue
		}
		total += int64(candOff[g+1] - candOff[g])
		if budget > 0 && total > budget {
			return nil, ErrBudget
		}
	}

	cw := relation.NewColumnWriter(extended)
	cw.Reserve(int(total))
	bindCols := binds.Columns()
	bind := make([]relation.Value, len(bindCols))
	for i, g := range group {
		if g < 0 {
			continue
		}
		gatherRow(bind, bindCols, i)
		cw.BeginRun(bind)
		cw.AppendRun(cands[candOff[g]:candOff[g+1]])
	}
	return extended, nil
}

// verifyRound filters extended bindings against one relation: bindings are
// shuffled to the partition owning the relation's matching tuples and kept
// only when the relation contains the projection. Returns the global
// number of bindings kept.
func verifyRound(c *cluster.Cluster, phase string, ver *relation.Relation, prefix []string, attr string) (int64, error) {
	checkAttrs := append(sharedAttrs(ver.Attrs, prefix), attr)
	bound := append(slices.Clip(prefix), attr)
	return coExchange(c, phase, "bindings", []exchangeInput{
		{name: ver.Name, attrs: ver.Attrs, cols: attrIdx(ver.Attrs, checkAttrs)},
		{name: "bindings", attrs: bound, cols: attrIdx(bound, checkAttrs)},
	}, func(in []*relation.Relation) (*relation.Relation, error) {
		return in[1].Semijoin(in[0], checkAttrs), nil
	})
}

// pickCols returns r's columns for the named attributes, in that order.
func pickCols(r *relation.Relation, attrs []string) [][]relation.Value {
	cols := make([][]relation.Value, len(attrs))
	for j, a := range attrs {
		cols[j] = r.Column(r.AttrIndex(a))
	}
	return cols
}

// gatherRow copies row i of cols into dst (len(dst) == len(cols)).
func gatherRow(dst []relation.Value, cols [][]relation.Value, i int) {
	for j, col := range cols {
		dst[j] = col[i]
	}
}
