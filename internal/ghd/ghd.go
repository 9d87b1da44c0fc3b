// Package ghd computes generalized hypertree decompositions of query
// hypergraphs (§III-A of the paper). ADJ restricts the plan search space to
// one optimal hypertree T: its hypernodes (bags) are the only candidate
// pre-computed relations, and valid Leapfrog attribute orders must follow a
// traversal order of T's nodes.
//
// Decompositions here are edge partitions: every atom of the query belongs
// to exactly one bag (matching the paper, where a bag is "a subset of
// hyperedges … computed by joining the corresponding relations"). A
// partition is a valid decomposition when each group is connected and the
// bag hypergraph is α-acyclic (GYO-reducible), which yields a join tree
// with the running-intersection property. Among valid decompositions we
// pick the one minimizing the maximum fractional edge cover of any bag —
// the fhw criterion that bounds each pre-computed relation by
// |Rmax|^fhw (AGM).
package ghd

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"adj/internal/hypergraph"
	"adj/internal/lp"
)

// Bag is a hypernode of the decomposition: a group of query atoms.
type Bag struct {
	ID int
	// Atoms are the indexes of the query atoms joined by this bag.
	Atoms []int
	// Vertices is the sorted union of the atoms' attributes.
	Vertices []string
	// Width is the fractional edge cover number ρ*(Vertices) with respect to
	// all query edges; |output| ≤ |Rmax|^Width by AGM.
	Width float64
}

// IsBase reports whether the bag is a single original relation (nothing to
// pre-compute).
func (b Bag) IsBase() bool { return len(b.Atoms) == 1 }

// Decomposition is a hypertree T = (bags, join tree).
type Decomposition struct {
	Query hypergraph.Query
	Bags  []Bag
	// Adj is the join-tree adjacency list over bag IDs.
	Adj [][]int
	// MaxWidth = max over bags of Width (the fhw achieved by T).
	MaxWidth float64
}

// String renders the decomposition compactly.
func (d *Decomposition) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "GHD of %s (fhw=%.2f):", d.Query.Name, d.MaxWidth)
	for _, b := range d.Bags {
		names := make([]string, len(b.Atoms))
		for i, ai := range b.Atoms {
			names[i] = d.Query.Atoms[ai].Name
		}
		fmt.Fprintf(&sb, "\n  v%d{%s} attrs=%v width=%.2f adj=%v",
			b.ID, strings.Join(names, "⋈"), b.Vertices, b.Width, d.Adj[b.ID])
	}
	return sb.String()
}

// Decompose enumerates every partition of q's atoms into bags and returns,
// among those whose bags are each connected and together form an acyclic
// join tree, one minimizing (max bag width, then sum of widths, then fewer
// non-base bags, then more bags). Bag size is not capped. It is a pure
// function of the query's atoms, and its connectivity check is the only one
// the planner runs. Every optimizer.New pays for it, so the enumeration
// works on bitmasks — a vertex set is a word, and a partition that is
// rejected (disconnected group, cyclic bag hypergraph, no better than the
// incumbent) allocates nothing.
func Decompose(q hypergraph.Query) (*Decomposition, error) {
	h := q.Hypergraph()
	m := len(h.Edges)
	if m == 0 {
		return nil, fmt.Errorf("ghd: query %s has no atoms", q.Name)
	}
	if m > 64 || len(h.Vertices) > 64 {
		return nil, fmt.Errorf("ghd: query %s is too large to enumerate (%d atoms, %d attributes; limit 64)", q.Name, m, len(h.Vertices))
	}
	// Bits follow sorted vertex order, so a mask expands to the sorted
	// vertex list a Bag carries.
	sorted := append([]string(nil), h.Vertices...)
	sort.Strings(sorted)
	bit := make(map[string]uint64, len(sorted))
	for i, v := range sorted {
		bit[v] = 1 << i
	}
	edgeMask := make([]uint64, m)
	for e, edge := range h.Edges {
		for _, v := range edge {
			edgeMask[e] |= bit[v]
		}
	}
	vertsOf := func(mask uint64) []string {
		out := make([]string, 0, bits.OnesCount64(mask))
		for i, v := range sorted {
			if mask&(1<<i) != 0 {
				out = append(out, v)
			}
		}
		return out
	}
	widthCache := make(map[uint64]float64)
	bagWidth := func(mask uint64) float64 {
		w, ok := widthCache[mask]
		if !ok {
			w = FractionalEdgeCover(vertsOf(mask), h.Edges)
			widthCache[mask] = w
		}
		return w
	}

	var best *Decomposition
	bestKey := scoreKey{maxW: 1e18}

	// Enumerate set partitions via restricted growth strings; assign[e] is
	// edge e's group. The per-partition scratch below is sized for the
	// finest partition (m groups).
	assign := make([]int, m)
	groupVerts := make([]uint64, m) // vertex mask per group
	groupEdges := make([]uint64, m) // edge-index mask per group
	tree := make([][2]int, 0, m)    // join-tree edges, in GYO removal order
	consider := func(numGroups int) {
		clear(groupVerts[:numGroups])
		clear(groupEdges[:numGroups])
		for e, g := range assign {
			groupVerts[g] |= edgeMask[e]
			groupEdges[g] |= 1 << e
		}
		for _, em := range groupEdges[:numGroups] {
			if !connectedEdges(edgeMask, em) {
				return
			}
		}
		var ok bool
		if tree, ok = joinTree(groupVerts[:numGroups], tree[:0]); !ok {
			return
		}
		k := scoreKey{negBags: -numGroups}
		for g, vm := range groupVerts[:numGroups] {
			w := bagWidth(vm)
			k.maxW = max(k.maxW, w)
			k.sumW += w
			if groupEdges[g]&(groupEdges[g]-1) != 0 {
				k.nonBase++
			}
		}
		if !k.less(bestKey) {
			return
		}
		bestKey = k
		best = &Decomposition{Query: q, Bags: make([]Bag, numGroups), Adj: make([][]int, numGroups), MaxWidth: k.maxW}
		for g := range best.Bags {
			best.Bags[g] = Bag{ID: g, Vertices: vertsOf(groupVerts[g]), Width: bagWidth(groupVerts[g])}
		}
		for e, g := range assign {
			best.Bags[g].Atoms = append(best.Bags[g].Atoms, e)
		}
		for _, t := range tree {
			best.Adj[t[0]] = append(best.Adj[t[0]], t[1])
			best.Adj[t[1]] = append(best.Adj[t[1]], t[0])
		}
	}
	var rec func(i, maxG int)
	rec = func(i, maxG int) {
		if i == m {
			consider(maxG)
			return
		}
		for g := 0; g <= maxG && g <= i; g++ {
			assign[i] = g
			next := maxG
			if g == maxG {
				next = maxG + 1
			}
			rec(i+1, next)
		}
	}
	rec(0, 0)
	if best == nil {
		return nil, fmt.Errorf("ghd: no valid decomposition for %s", q.Name)
	}
	normalize(best)
	return best, nil
}

// connectedEdges reports whether the edges in the index mask are connected
// (share vertices transitively); single edges are connected by convention.
func connectedEdges(edgeMask []uint64, edges uint64) bool {
	first := bits.TrailingZeros64(edges)
	reach := edgeMask[first]
	rest := edges &^ (1 << first)
	for grew := true; grew && rest != 0; {
		grew = false
		for left := rest; left != 0; left &= left - 1 {
			e := bits.TrailingZeros64(left)
			if edgeMask[e]&reach != 0 {
				reach |= edgeMask[e]
				rest &^= 1 << e
				grew = true
			}
		}
	}
	return rest == 0
}

type scoreKey struct {
	maxW    float64
	sumW    float64
	nonBase int
	negBags int
}

func (a scoreKey) less(b scoreKey) bool {
	const tol = 1e-9
	if a.maxW < b.maxW-tol {
		return true
	}
	if a.maxW > b.maxW+tol {
		return false
	}
	if a.sumW < b.sumW-tol {
		return true
	}
	if a.sumW > b.sumW+tol {
		return false
	}
	if a.nonBase != b.nonBase {
		return a.nonBase < b.nonBase
	}
	return a.negBags < b.negBags
}

// normalize sorts bags deterministically (by first atom index) and remaps
// IDs and adjacency so equal inputs give identical decompositions.
func normalize(d *Decomposition) {
	order := make([]int, len(d.Bags))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		return d.Bags[order[x]].Atoms[0] < d.Bags[order[y]].Atoms[0]
	})
	remap := make([]int, len(d.Bags))
	for newID, oldID := range order {
		remap[oldID] = newID
	}
	newBags := make([]Bag, len(d.Bags))
	newAdj := make([][]int, len(d.Bags))
	for newID, oldID := range order {
		b := d.Bags[oldID]
		b.ID = newID
		newBags[newID] = b
		for _, nb := range d.Adj[oldID] {
			newAdj[newID] = append(newAdj[newID], remap[nb])
		}
		sort.Ints(newAdj[newID])
	}
	d.Bags = newBags
	d.Adj = newAdj
}

// joinTree runs GYO reduction over the bags' vertex masks. It appends the
// join-tree edges (removed bag, witness bag) to tree in removal order and
// reports whether the bag hypergraph is α-acyclic.
func joinTree(bags []uint64, tree [][2]int) ([][2]int, bool) {
	n := len(bags)
	alive := uint64(1)<<n - 1
	for remaining := n; remaining > 1; {
		removed := false
		for i := 0; i < n && remaining > 1; i++ {
			if alive&(1<<i) == 0 {
				continue
			}
			// S = vertices of bag i shared with any other alive bag.
			var others uint64
			for j, verts := range bags {
				if j != i && alive&(1<<j) != 0 {
					others |= verts
				}
			}
			shared := bags[i] & others
			// Find witness bag w ⊇ S.
			for j, verts := range bags {
				if j != i && alive&(1<<j) != 0 && shared&^verts == 0 {
					tree = append(tree, [2]int{i, j})
					alive &^= 1 << i
					remaining--
					removed = true
					break
				}
			}
		}
		if !removed {
			return tree, false // irreducible: cyclic
		}
	}
	return tree, true
}

// FractionalEdgeCover computes ρ*(verts): the minimum total weight
// assignment to edges such that every vertex in verts is covered with
// weight ≥ 1. Solved exactly with the simplex solver in package lp.
func FractionalEdgeCover(verts []string, edges [][]string) float64 {
	if len(verts) == 0 {
		return 0
	}
	n := len(edges)
	c := make([]float64, n)
	for i := range c {
		c[i] = 1
	}
	var a [][]float64
	var b []float64
	var op []lp.ConstraintOp
	for _, v := range verts {
		row := make([]float64, n)
		any := false
		for j, e := range edges {
			for _, x := range e {
				if x == v {
					row[j] = 1
					any = true
					break
				}
			}
		}
		if !any {
			// Vertex not coverable: infinite width. Callers only pass bag
			// vertices, which are always covered; treat as a huge penalty.
			return 1e18
		}
		a = append(a, row)
		b = append(b, 1)
		op = append(op, lp.GE)
	}
	sol, err := lp.Solve(lp.Problem{C: c, A: a, B: b, Op: op})
	if err != nil {
		return 1e18
	}
	return sol.Value
}
