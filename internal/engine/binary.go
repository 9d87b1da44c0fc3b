package engine

import "adj/internal/relation"

// binaryJoinOrder returns a greedy connected pairwise order over relation
// indexes: start from the smallest relation, repeatedly join with the
// connected relation minimizing a textbook size estimate
// (|A|·|B| / max distinct on the join key) — the style of plan a
// cost-based pairwise optimizer would emit.
func binaryJoinOrder(rels []*relation.Relation) []int {
	n := len(rels)
	used := make([]bool, n)
	// Start at the smallest relation.
	start := 0
	for i := 1; i < n; i++ {
		if rels[i].Len() < rels[start].Len() {
			start = i
		}
	}
	order := []int{start}
	used[start] = true
	// Distinct counts, each (relation, attribute) at most once per call:
	// the number of groups of an index over the column.
	type relAttr struct {
		rel  int
		attr string
	}
	distinct := make(map[relAttr]int)
	distinctOf := func(i int, attr string) int {
		d, ok := distinct[relAttr{i, attr}]
		if !ok {
			r := rels[i]
			d = relation.NewIndex([][]relation.Value{r.Column(r.AttrIndex(attr))}, r.Len()).Groups()
			distinct[relAttr{i, attr}] = d
		}
		return d
	}
	attrs := append([]string(nil), rels[start].Attrs...)
	for len(order) < n {
		best := -1
		bestCost := 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			shared := sharedAttrs(attrs, rels[i].Attrs)
			var cost float64
			if len(shared) == 0 {
				cost = 1e30 * float64(rels[i].Len()+1) // cross product: last resort
			} else {
				// |A ⋈ B| ≈ |A|·|B| / max(d_A(key), d_B(key)): the classic
				// independence estimate (the style whose errors §IV criticizes).
				d := 1
				for _, a := range shared {
					di := distinctOf(i, a)
					if di > d {
						d = di
					}
				}
				cost = float64(rels[i].Len()) / float64(d)
			}
			if best < 0 || cost < bestCost {
				best = i
				bestCost = cost
			}
		}
		order = append(order, best)
		used[best] = true
		attrs = joinedAttrs(attrs, rels[best].Attrs)
	}
	return order
}
