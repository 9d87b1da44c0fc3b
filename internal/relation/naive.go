package relation

// NaiveJoin evaluates the natural join of rels over the output attribute
// list outAttrs by brute-force backtracking over tuples. It exists purely as
// a correctness oracle for property tests of Leapfrog, HCube and the
// engines; it makes no attempt to be fast.
func NaiveJoin(rels []*Relation, outAttrs []string) *Relation {
	out := New("naive", outAttrs...)
	if len(rels) == 0 {
		return out
	}
	binding := make(map[string]Value, len(outAttrs))
	row := make([]Value, len(outAttrs))
	var rec func(d int)
	rec = func(d int) {
		if d == len(rels) {
			for i, a := range outAttrs {
				row[i] = binding[a]
			}
			out.AppendTuple(row)
			return
		}
		r := rels[d]
		for i, n := 0, r.Len(); i < n; i++ {
			ok := true
			var bound []string
			for j, a := range r.Attrs {
				x := r.cols[j][i]
				if v, has := binding[a]; has {
					if v != x {
						ok = false
						break
					}
				} else {
					binding[a] = x
					bound = append(bound, a)
				}
			}
			if ok {
				rec(d + 1)
			}
			for _, a := range bound {
				delete(binding, a)
			}
		}
	}
	rec(0)
	// The same output tuple can be produced once per combination of input
	// tuples; natural-join semantics over sets require dedup.
	return out.SortDedup()
}

// IntersectSorted intersects two ascending value slices.
func IntersectSorted(a, b []Value) []Value {
	var out []Value
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// IntersectAllSorted intersects any number of ascending value slices.
func IntersectAllSorted(lists [][]Value) []Value {
	if len(lists) == 0 {
		return nil
	}
	acc := lists[0]
	for _, l := range lists[1:] {
		acc = IntersectSorted(acc, l)
		if len(acc) == 0 {
			return nil
		}
	}
	return acc
}
