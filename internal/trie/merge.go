package trie

import (
	"sync"

	"adj/internal/relation"
)

// Merge combines block tries of the same schema into a single trie. This is
// the server-side half of the Merge HCube implementation (§V): each block
// arrives with its trie pre-built by the sender, and the receiver merges the
// senders' levels directly rather than re-sorting raw tuples.
//
// The merge walks the inputs level by level. Under each output node one
// linear scan of the inputs' sibling ranges finds the smallest value and the
// smallest value of every other input. A value several inputs hold goes out
// once, and the merge descends into the child ranges of every input holding
// it. A run of values only one input holds — everything it has below the
// next input's head, its end found by a gallop — is copied with its whole
// subtree in bulk: one append per level and a re-based Starts. So the cost
// follows how far the inputs overlap, not their size. Parts cut from one
// sorted relation as contiguous row ranges share only the boundary keys of
// its sorted column, so at that column's level — the root, or the child
// lists below a permuted trie's root — they copy in a few bulk runs; fully
// interleaved parts pay one step per shared node. The result is the trie
// Build makes from the union of the inputs' tuples, level for level.
//
// Merge is reuse-safe: inputs are never mutated, and the returned trie
// aliases no pooled scratch — it is either freshly built or, when exactly
// one non-empty input remains, that input itself (callers treating tries
// as immutable, as the whole runtime does, may therefore share both inputs
// and output freely). The cursors and the staging level arrays come from an
// internal pool, so repeated merges — the per-block path of the Merge
// shuffle — allocate only the output trie.
func Merge(ts []*Trie) *Trie {
	// Remember the schema before dropping empty blocks so a fully-empty
	// merge still yields a correctly-typed empty trie.
	var schema []string
	for _, t := range ts {
		if t != nil && len(t.Attrs) > 0 {
			schema = t.Attrs
			break
		}
	}
	ts = nonEmpty(ts)
	if len(ts) == 0 {
		if schema == nil {
			return &Trie{}
		}
		return FromSorted(relation.New("merged", schema...))
	}
	if len(ts) == 1 {
		return ts[0]
	}
	m := mergePool.Get().(*merger)
	t := m.merge(ts)
	mergePool.Put(m)
	return t
}

// cursor is one input's position in a sibling range at some level: vals is
// what is left of the range, lo the level position of vals[0]. Ranges are
// never empty: a non-empty trie (Build's or Decode's) has a non-empty root
// and at least one child under every node.
type cursor struct {
	vals []Value
	lo   int32
	in   int32 // index of the input trie
}

// merger holds the pooled merge state: the inputs, one cursor list per
// level and the staging level arrays the output is copied out of.
type merger struct {
	ts     []*Trie
	k      int
	cur    [][]cursor
	vals   [][]Value
	starts [][]int32
}

var mergePool = sync.Pool{New: func() interface{} { return &merger{} }}

func (m *merger) merge(ts []*Trie) *Trie {
	k := ts[0].Arity()
	m.ts, m.k = ts, k
	if len(m.cur) < k {
		m.cur = make([][]cursor, k)
		m.vals = make([][]Value, k)
		m.starts = make([][]int32, k)
	}
	// Stage each level in a pooled array sized for the inputs' sum, which
	// bounds the merged level.
	for d := 0; d < k; d++ {
		need := 0
		for _, t := range ts {
			need += len(t.Levels[d].Vals)
		}
		if cap(m.vals[d]) < need {
			m.vals[d] = make([]Value, 0, need)
		}
		if cap(m.starts[d]) < need+1 {
			m.starts[d] = make([]int32, 0, need+1)
		}
		m.vals[d] = m.vals[d][:0]
		m.starts[d] = m.starts[d][:0]
	}
	root := m.cur[0][:0]
	for i, t := range ts {
		root = append(root, cursor{vals: t.Levels[0].Vals, in: int32(i)})
	}
	m.cur[0] = root
	m.starts[0] = append(m.starts[0], 0)
	m.level(0)

	t := &Trie{Attrs: append([]string(nil), ts[0].Attrs...), Levels: make([]Level, k)}
	for d := 0; d < k; d++ {
		vals := make([]Value, len(m.vals[d]))
		copy(vals, m.vals[d])
		starts := make([]int32, len(m.starts[d])+1)
		copy(starts, m.starts[d])
		starts[len(starts)-1] = int32(len(vals))
		t.Levels[d] = Level{Vals: vals, Starts: starts}
	}
	t.NumTuples = len(t.Levels[k-1].Vals)
	t.Root = newDirectory(t.Levels[0].Vals)
	// Drop every input reference before the merger parks in the pool:
	// callers (the block cache in particular) release their part tries
	// after merging, and a pooled cursor must not pin them.
	m.ts = nil
	for d := range m.cur {
		clear(m.cur[d][:cap(m.cur[d])])
	}
	return t
}

// level merges the sibling ranges in m.cur[d] into one output range at
// level d, appending each output node's start at level d+1 before its
// children. One pass over the heads finds the smallest head v, the cursor
// holding it and the smallest head among the others, v2. When v < v2, that
// cursor's values below v2 are held by no other input: the whole run goes
// out in one copySubtree, found by a gallop when it is longer than one
// value. A tie takes the per-value step: v goes out once and every cursor
// holding it descends into its child range.
func (m *merger) level(d int) {
	cs := m.cur[d]
	leaf := d == m.k-1
	for len(cs) > 1 {
		mi, v, v2 := 0, cs[0].vals[0], cs[1].vals[0]
		if v2 < v {
			mi, v, v2 = 1, v2, v
		}
		for i := 2; i < len(cs); i++ {
			if h := cs[i].vals[0]; h < v {
				mi, v, v2 = i, h, v
			} else if h < v2 {
				v2 = h
			}
		}
		if v < v2 {
			c := &cs[mi]
			n := 1
			if len(c.vals) > 1 && c.vals[1] < v2 {
				n = runBelow(c.vals, v2)
			}
			m.copySubtree(d, cursor{vals: c.vals[:n], lo: c.lo, in: c.in})
			c.vals, c.lo = c.vals[n:], c.lo+int32(n)
			if len(c.vals) == 0 {
				cs = append(cs[:mi], cs[mi+1:]...)
			}
			continue
		}
		m.vals[d] = append(m.vals[d], v)
		var next []cursor
		if !leaf {
			m.starts[d+1] = append(m.starts[d+1], int32(len(m.vals[d+1])))
			next = m.cur[d+1][:0]
		}
		j := 0
		for _, c := range cs {
			if c.vals[0] == v {
				if !leaf {
					lv := &m.ts[c.in].Levels[d+1]
					s0, s1 := lv.Starts[c.lo], lv.Starts[c.lo+1]
					next = append(next, cursor{vals: lv.Vals[s0:s1], lo: s0, in: c.in})
				}
				c.vals, c.lo = c.vals[1:], c.lo+1
				if len(c.vals) == 0 {
					continue
				}
			}
			cs[j] = c
			j++
		}
		cs = cs[:j]
		if !leaf {
			m.cur[d+1] = next
			m.level(d + 1)
		}
	}
	if len(cs) == 1 {
		m.copySubtree(d, cs[0])
	}
}

// runBelow returns how many values of the ascending run vals lie below
// bound, given that the first two do: a gallop from the front brackets the
// end, and a binary search inside the last doubling finds it.
func runBelow(vals []Value, bound Value) int {
	lo, step := 1, 2 // vals[lo] < bound
	for lo+step < len(vals) && vals[lo+step] < bound {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(vals)) // hi == len(vals) or vals[hi] >= bound
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if vals[mid] < bound {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// copySubtree appends what is left of one input's sibling range at level d,
// with every node below it: each level's nodes under a contiguous range are
// themselves contiguous, so every level is one append of values and one of
// starts shifted to the output's positions.
func (m *merger) copySubtree(d int, c cursor) {
	t := m.ts[c.in]
	lo, hi := c.lo, c.lo+int32(len(c.vals))
	m.vals[d] = append(m.vals[d], c.vals...)
	for e := d + 1; e < m.k; e++ {
		lv := &t.Levels[e]
		st := lv.Starts[lo : hi+1]
		n := len(m.starts[e])
		m.starts[e] = append(m.starts[e], st[:len(st)-1]...)
		shift := int32(len(m.vals[e])) - st[0]
		for i := n; i < len(m.starts[e]); i++ {
			m.starts[e][i] += shift
		}
		lo, hi = st[0], st[len(st)-1]
		m.vals[e] = append(m.vals[e], lv.Vals[lo:hi]...)
	}
}

func nonEmpty(ts []*Trie) []*Trie {
	var out []*Trie
	for _, t := range ts {
		if t != nil && t.NumTuples > 0 {
			out = append(out, t)
		}
	}
	return out
}
