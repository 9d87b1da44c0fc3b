package leapfrog

import (
	"fmt"
	"sort"

	"adj/internal/trie"
)

// Extender answers "given a partial binding of the first d attributes of
// the global order, which values of attribute d+1 join with it?" — the
// val(t_i → A_{i+1}) primitive of Alg. 1. The sampler uses it to count
// extensions per level, and CachedJoin (HCubeJ+Cache) computes a level on
// a cache miss with it. BigJoin does not: it extends its distributed bindings
// through relation.Index.
//
// A binding re-enters every relation at its root, so every seek the
// extender makes in a trie's whole first level — finding a bound value, or
// chasing a rival list's key while intersecting — starts at the value's
// bucket in the trie's root Directory, as the joiner's seekRoot does, rather
// than galloping in from the start. Deeper levels are one parent's children
// and gallop. The positions found, and so the values and the one work unit
// each seek counts, do not depend on where a seek starts.
type Extender struct {
	order []string
	pos   map[string]int
	// rels[d] lists, for each depth, the tries of relations containing
	// order[d], with the positions (in the global order) of their attributes.
	rels [][]extRel
	// lists/dirs/cursors/runBuf are Extend and DrainLeaf scratch (an
	// Extender serves one join at a time; it is not safe for concurrent use
	// — the sharded sampler gives every shard its own). dirs[i] is
	// lists[i]'s root directory when lists[i] is a whole first level.
	lists   [][]Value
	dirs    []*trie.Directory
	cursors []int
	runBuf  []Value
	// inter[d] is depth d's intersection buffer: the values Extend(·, d)
	// returns stay valid while the caller descends to deeper levels.
	inter [][]Value
}

type extRel struct {
	t *trie.Trie
	// root is the trie's root directory (nil when it has none).
	root *trie.Directory
	// attrPos are the global-order positions of the trie's attributes.
	attrPos []int
}

// NewExtender prepares tries for extension queries. Tries must come from
// BuildTries(rels, order).
func NewExtender(tries []*trie.Trie, order []string) (*Extender, error) {
	e := &Extender{order: order, pos: make(map[string]int, len(order))}
	for i, a := range order {
		e.pos[a] = i
	}
	e.rels = make([][]extRel, len(order))
	e.inter = make([][]Value, len(order))
	for _, t := range tries {
		ap := make([]int, len(t.Attrs))
		for i, a := range t.Attrs {
			p, ok := e.pos[a]
			if !ok {
				return nil, fmt.Errorf("extender: attribute %q not in order %v", a, order)
			}
			ap[i] = p
		}
		if !sort.IntsAreSorted(ap) {
			return nil, fmt.Errorf("extender: trie attrs %v not sorted by order", t.Attrs)
		}
		er := extRel{t: t, root: t.RootDirectory(), attrPos: ap}
		for _, p := range ap {
			e.rels[p] = append(e.rels[p], er)
		}
	}
	return e, nil
}

// Extend returns the sorted values v of attribute order[d] such that the
// binding (values for order[0..d-1]) extended with v satisfies every
// relation containing order[d], restricted to its bound attributes. The
// second return is the number of candidate values scanned (seek work).
//
// The returned slice is read-only and owned by the extender: it aliases
// trie storage (one relation at d) or depth d's intersection buffer, and
// stays valid until the next Extend at the same depth — so a traversal may
// range over it while extending deeper levels, and a caller that retains
// it past that copies it. Steady state allocates nothing.
func (e *Extender) Extend(binding []Value, d int) ([]Value, int64) {
	lists, dirs, work := e.gather(binding, d)
	if lists == nil {
		return nil, work
	}
	// Intersect smallest-first. The stable insertion sort fixes the order of
	// equal-length lists, and with it the intermediate sizes the work tally
	// counts, as a function of the input alone.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
			dirs[j], dirs[j-1] = dirs[j-1], dirs[j]
		}
	}
	acc := lists[0]
	for i, l := range lists[1:] {
		// The first round reads trie storage and fills the buffer; later
		// rounds filter the buffer in place (writes trail reads).
		acc = intersectInto(e.inter[d][:0], acc, l, dirs[i+1])
		e.inter[d] = acc
		work += int64(len(acc))
		if len(acc) == 0 {
			break
		}
	}
	return acc, work
}

// gallopRatio is the length ratio beyond which intersecting by seeking the
// longer list beats merging both: a merge reads every value of the longer
// list, a galloping seek reads a logarithmic number per value of the
// shorter.
const gallopRatio = 8

// gather collects the candidate lists of every relation containing
// order[d] into the extender's scratch, with their root directories, and
// the seek work spent finding them. It returns nil lists, having stopped at
// the first, when some relation offers no candidate (its bound prefix is
// absent, or its trie is empty), or when no relation contains order[d].
func (e *Extender) gather(binding []Value, d int) ([][]Value, []*trie.Directory, int64) {
	lists, dirs := e.lists[:0], e.dirs[:0]
	var work int64
	for _, er := range e.rels[d] {
		vals, dir, w := er.candidates(binding, d)
		work += w
		if len(vals) == 0 {
			e.lists, e.dirs = lists[:0], dirs[:0]
			return nil, nil, work
		}
		lists, dirs = append(lists, vals), append(dirs, dir)
	}
	e.lists, e.dirs = lists, dirs // keep grown scratch
	if len(lists) == 0 {
		return nil, nil, work
	}
	return lists, dirs, work
}

// intersectInto appends the intersection of two ascending slices (a no
// longer than b) to dst and returns it; bdir is b's root directory when b is
// a whole first level. dst may be a[:0]: an element is written only after
// it, and everything before it, has been read.
func intersectInto(dst, a, b []Value, bdir *trie.Directory) []Value {
	if len(b) > gallopRatio*len(a) {
		j := 0
		for _, v := range a {
			if b[j] < v {
				if j = seekRoot(b, j, v, bdir); j == len(b) {
					break
				}
			}
			if b[j] == v {
				dst = append(dst, v)
				if j++; j == len(b) {
					break
				}
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// candidates walks er's trie down the bound prefix and returns the child
// values at the level corresponding to global attribute d, with the trie's
// root directory when they are its whole first level (nil otherwise).
// Each bound level costs one seek, one work unit: through the root
// directory at level 0, a gallop over the parent's children below. Returns
// nil when the bound prefix is absent from the relation (no extension
// possible).
func (er extRel) candidates(binding []Value, d int) ([]Value, *trie.Directory, int64) {
	var node int32 // node position at current level
	var work int64
	level := -1 // trie level of the last matched attribute
	for i, p := range er.attrPos {
		vals := er.childValues(i, level, node)
		if p == d {
			// All earlier trie levels are bound (trie attrs sorted by global
			// order and relations containing d must have their earlier attrs
			// among the bound prefix).
			if i == 0 {
				return vals, er.root, work
			}
			return vals, nil, work
		}
		if p > d {
			break
		}
		// Attribute p is bound: seek it.
		v := binding[p]
		work++
		if len(vals) == 0 || vals[len(vals)-1] < v {
			return nil, nil, work
		}
		var idx int
		if vals[0] < v {
			var dir *trie.Directory
			if i == 0 {
				dir = er.root
			}
			idx = seekRoot(vals, 0, v, dir)
		}
		if vals[idx] != v {
			return nil, nil, work
		}
		l := er.t.Levels[i]
		var base int32
		if i == 0 {
			base = l.Starts[0]
		} else {
			base = l.Starts[node]
		}
		node = base + int32(idx)
		level = i
	}
	// d not an attribute of this relation (callers prevent this).
	return nil, nil, work
}

// childValues returns the children at trie level i under the node reached
// at level `level` (with position `node`); level -1 means the root.
func (er extRel) childValues(i, level int, node int32) []Value {
	l := er.t.Levels[i]
	if level < 0 {
		return l.Vals[l.Starts[0]:l.Starts[1]]
	}
	return l.Vals[l.Starts[node]:l.Starts[node+1]]
}

// DrainLeaf streams the intersection Extend(binding, d) would materialize
// straight into sink — the cached join's leaf-level analogue of the plain
// joiner's leaf, with the same batched convention: the matched
// values reach the sink as at most one run under the prefix binding[:d]
// (sink may be nil for counting runs; the nil check happens once, not per
// value). The candidate lists stay slices into trie storage and the
// intersection runs as a multi-pointer leapfrog over them; the
// single-list case hands trie storage to the sink directly, the others
// stage matches in reused scratch. A non-negative limit stops the drain
// once that many values are taken (the caller's remaining work budget).
// Counts are identical with and without a sink. Returns the number of
// values matched and the seek work performed.
func (e *Extender) DrainLeaf(binding []Value, d int, limit int64, sink Sink) (int64, int64) {
	lists, dirs, work := e.gather(binding, d)
	if lists == nil {
		return 0, work
	}
	if sink != nil {
		sink.BeginRun(binding[:d])
	}
	var count int64
	switch len(lists) {
	case 1:
		vals := lists[0]
		if limit >= 0 && int64(len(vals)) > limit {
			vals = vals[:limit]
		}
		if sink != nil {
			sink.AppendRun(vals)
		}
		count = int64(len(vals))
	case 2:
		v0, v1 := lists[0], lists[1]
		d0, d1 := dirs[0], dirs[1]
		run := e.runBuf[:0]
		var p0, p1 int
		k0, k1 := v0[0], v1[0]
		for limit < 0 || count < limit {
			if k0 == k1 {
				if sink != nil {
					run = append(run, k0)
				}
				count++
				p0++
				p1++
				if p0 >= len(v0) || p1 >= len(v1) {
					break
				}
				k0, k1 = v0[p0], v1[p1]
			} else if k0 < k1 {
				p0 = seekRoot(v0, p0, k1, d0)
				work++
				if p0 >= len(v0) {
					break
				}
				k0 = v0[p0]
			} else {
				p1 = seekRoot(v1, p1, k0, d1)
				work++
				if p1 >= len(v1) {
					break
				}
				k1 = v1[p1]
			}
		}
		if sink != nil && len(run) > 0 {
			sink.AppendRun(run)
		}
		e.runBuf = run[:0]
	default:
		// Generalized leapfrog ring over k sorted slices: chase the max key
		// until all cursors agree, collect, advance.
		k := len(lists)
		if cap(e.cursors) < k {
			e.cursors = make([]int, k)
		}
		pos := e.cursors[:k]
		for i := range pos {
			pos[i] = 0
		}
		run := e.runBuf[:0]
		hi := lists[0][0]
		for i := 1; i < k; i++ {
			if v := lists[i][0]; v > hi {
				hi = v
			}
		}
		ring := 0
	drain:
		for limit < 0 || count < limit {
			matched := 0
			for matched < k {
				vals := lists[ring]
				if vals[pos[ring]] < hi {
					pos[ring] = seekRoot(vals, pos[ring], hi, dirs[ring])
					work++
					if pos[ring] >= len(vals) {
						break drain
					}
				}
				if v := vals[pos[ring]]; v > hi {
					hi = v
					matched = 1
				} else {
					matched++
				}
				ring++
				if ring == k {
					ring = 0
				}
			}
			if sink != nil {
				run = append(run, hi)
			}
			count++
			// Advance one cursor past the match and restart the pursuit.
			pos[ring]++
			if pos[ring] >= len(lists[ring]) {
				break
			}
			hi = lists[ring][pos[ring]]
		}
		if sink != nil && len(run) > 0 {
			sink.AppendRun(run)
		}
		e.runBuf = run[:0]
	}
	return count, work
}
