package main

import (
	"fmt"
	"slices"
	"sort"

	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// The oracle is the benchmark's independent referee: a backtracking join
// over hash-adjacency indexes that shares no code with the engines it
// checks (no leapfrog, trie or engine import — only the query and relation
// data types). Every measured op is compared against its answer.

// answer is what the oracle knows about one (query, graph) pair: the result
// count and an order-independent checksum of the result rows.
type answer struct {
	count    int64
	checksum uint64
}

// rowHash mixes one result row (values in the query's attribute order,
// q.Attrs()) into 64 bits. Checksums add row hashes with wrap-around, so
// they do not depend on row order but do depend on multiplicity.
func rowHash(row []relation.Value) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h = (h ^ uint64(v)) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// atomIndex is one atom's hash-adjacency index: its attributes sorted by
// position in the global order, and per level a map from the values of the
// earlier attributes to the sorted distinct values of the next one.
type atomIndex struct {
	pos    []int                         // global order positions, ascending
	levels []map[string][]relation.Value // levels[j]: key(prefix of j values) -> values
}

// prefixKey encodes bound values as a map key.
func prefixKey(buf []byte, vals []relation.Value) []byte {
	buf = buf[:0]
	for _, v := range vals {
		u := uint64(v)
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return buf
}

func buildAtomIndex(r *relation.Relation, order map[string]int) (*atomIndex, error) {
	k := len(r.Attrs)
	cols := make([]int, k)
	for j := range cols {
		cols[j] = j
		if _, ok := order[r.Attrs[j]]; !ok {
			return nil, fmt.Errorf("oracle: attribute %q of %s is not a query attribute", r.Attrs[j], r.Name)
		}
	}
	sort.Slice(cols, func(x, y int) bool { return order[r.Attrs[cols[x]]] < order[r.Attrs[cols[y]]] })
	ix := &atomIndex{pos: make([]int, k), levels: make([]map[string][]relation.Value, k)}
	for j, c := range cols {
		ix.pos[j] = order[r.Attrs[c]]
		ix.levels[j] = make(map[string][]relation.Value)
	}
	var key []byte
	prefix := make([]relation.Value, 0, k)
	for i, n := 0, r.Len(); i < n; i++ {
		t := r.Tuple(i)
		prefix = prefix[:0]
		for j, c := range cols {
			key = prefixKey(key, prefix)
			ix.levels[j][string(key)] = append(ix.levels[j][string(key)], t[c])
			prefix = append(prefix, t[c])
		}
	}
	for _, lvl := range ix.levels {
		for key, vals := range lvl {
			slices.Sort(vals)
			lvl[key] = slices.Compact(vals)
		}
	}
	return ix, nil
}

// oracleJoin evaluates the natural join of rels (one bound relation per atom
// of q, schemas renamed to the query's attributes) by backtracking over
// q.Attrs(): at each attribute it takes the shortest adjacency list among
// the atoms that contain the attribute and keeps the values every other
// such atom also lists.
func oracleJoin(q hypergraph.Query, rels []*relation.Relation) (answer, error) {
	attrs := q.Attrs()
	order := make(map[string]int, len(attrs))
	for i, a := range attrs {
		order[a] = i
	}
	type use struct {
		ix    *atomIndex
		level int
	}
	byDepth := make([][]use, len(attrs))
	for _, r := range rels {
		ix, err := buildAtomIndex(r, order)
		if err != nil {
			return answer{}, err
		}
		for j, p := range ix.pos {
			byDepth[p] = append(byDepth[p], use{ix, j})
		}
	}
	for d, us := range byDepth {
		if len(us) == 0 {
			return answer{}, fmt.Errorf("oracle: attribute %q is in no atom", attrs[d])
		}
	}

	var ans answer
	binding := make([]relation.Value, len(attrs))
	var key []byte
	prefix := make([]relation.Value, 0, len(attrs))
	lists := make([][][]relation.Value, len(attrs)) // per-depth scratch
	var walk func(d int)
	walk = func(d int) {
		if d == len(attrs) {
			ans.count++
			ans.checksum += rowHash(binding)
			return
		}
		ls := lists[d][:0]
		for _, u := range byDepth[d] {
			prefix = prefix[:0]
			for _, p := range u.ix.pos[:u.level] {
				prefix = append(prefix, binding[p])
			}
			key = prefixKey(key, prefix)
			l := u.ix.levels[u.level][string(key)]
			if len(l) == 0 {
				lists[d] = ls
				return
			}
			ls = append(ls, l)
		}
		lists[d] = ls
		short := 0
		for i, l := range ls {
			if len(l) < len(ls[short]) {
				short = i
			}
		}
	candidates:
		for _, v := range ls[short] {
			for i, l := range lists[d] {
				if i == short {
					continue
				}
				if _, found := slices.BinarySearch(l, v); !found {
					continue candidates
				}
			}
			binding[d] = v
			walk(d + 1)
		}
	}
	walk(0)
	return ans, nil
}

// resultChecksum folds a materialised result relation into the oracle's
// checksum: rows are permuted from the execution's attribute order into
// q.Attrs() before hashing.
func resultChecksum(q hypergraph.Query, out *relation.Relation) (uint64, error) {
	attrs := q.Attrs()
	if len(out.Attrs) != len(attrs) {
		return 0, fmt.Errorf("oracle: result has %d attributes, query has %d", len(out.Attrs), len(attrs))
	}
	cols := out.Columns()
	perm := make([][]relation.Value, len(attrs))
	for i, a := range attrs {
		j := out.AttrIndex(a)
		if j < 0 {
			return 0, fmt.Errorf("oracle: result lacks attribute %q", a)
		}
		perm[i] = cols[j]
	}
	var sum uint64
	row := make([]relation.Value, len(attrs))
	for i, n := 0, out.Len(); i < n; i++ {
		for c := range perm {
			row[c] = perm[c][i]
		}
		sum += rowHash(row)
	}
	return sum, nil
}
