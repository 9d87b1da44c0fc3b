package ghd

import "strings"

// Traversal orders and attribute orders (§III-A "Reducing Choice of
// Attribute Orders"). A traversal order of the hypertree is valid when
// every prefix induces a connected subtree; an attribute order is valid
// when it lists, for some valid traversal order, each bag's not-yet-seen
// attributes as a contiguous block.

// TraversalOrders returns every valid traversal order of the bags (each
// prefix connected in the join tree). For a single bag there is one order.
func (d *Decomposition) TraversalOrders() [][]int {
	n := len(d.Bags)
	var out [][]int
	used := make([]bool, n)
	order := make([]int, 0, n)
	var rec func()
	rec = func() {
		if len(order) == n {
			out = append(out, append([]int(nil), order...))
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			if len(order) > 0 && !d.adjacentToAny(v, order) {
				continue
			}
			used[v] = true
			order = append(order, v)
			rec()
			order = order[:len(order)-1]
			used[v] = false
		}
	}
	rec()
	return out
}

func (d *Decomposition) adjacentToAny(v int, set []int) bool {
	for _, u := range set {
		for _, w := range d.Adj[u] {
			if w == v {
				return true
			}
		}
	}
	return false
}

// NewAttrsAt returns, for a traversal order, the attributes newly
// introduced by each bag (bag attrs minus attrs of earlier bags), in
// sorted-vertex order.
func (d *Decomposition) NewAttrsAt(order []int) [][]string {
	seen := make(map[string]bool)
	out := make([][]string, len(order))
	for i, b := range order {
		for _, v := range d.Bags[b].Vertices {
			if !seen[v] {
				seen[v] = true
				out[i] = append(out[i], v)
			}
		}
	}
	return out
}

// AttrOrderFor builds one canonical valid attribute order for a traversal
// order: each bag's new attributes in sorted order. Engines that want the
// best within-bag permutation refine this with local statistics.
func (d *Decomposition) AttrOrderFor(order []int) []string {
	var out []string
	for _, grp := range d.NewAttrsAt(order) {
		out = append(out, grp...)
	}
	return out
}

// ValidAttrOrders enumerates all valid attribute orders: for every valid
// traversal order, every permutation of each bag's new attributes. The
// result is deduplicated (different traversals can yield the same order).
func (d *Decomposition) ValidAttrOrders() [][]string {
	seen := make(map[string]bool)
	var out [][]string
	for _, to := range d.TraversalOrders() {
		groups := d.NewAttrsAt(to)
		var build func(i int, acc []string)
		build = func(i int, acc []string) {
			if i == len(groups) {
				key := strings.Join(acc, "\x00")
				if !seen[key] {
					seen[key] = true
					out = append(out, append([]string(nil), acc...))
				}
				return
			}
			perms(groups[i], func(p []string) {
				build(i+1, append(acc, p...))
			})
		}
		build(0, nil)
	}
	return out
}

// IsValidAttrOrder reports whether ord is among the valid attribute orders.
func (d *Decomposition) IsValidAttrOrder(ord []string) bool {
	key := strings.Join(ord, "\x00")
	for _, v := range d.ValidAttrOrders() {
		if strings.Join(v, "\x00") == key {
			return true
		}
	}
	return false
}

// AllAttrOrders enumerates every permutation of the query attributes —
// the unpruned O(n!) space HCubeJ searches (Fig. 8's "All-Selected").
func AllAttrOrders(attrs []string) [][]string {
	var out [][]string
	perms(attrs, func(p []string) {
		out = append(out, append([]string(nil), p...))
	})
	return out
}

// perms calls fn with every permutation of items (fn must copy to retain).
func perms(items []string, fn func([]string)) {
	n := len(items)
	if n == 0 {
		fn(nil)
		return
	}
	buf := append([]string(nil), items...)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(buf)
			return
		}
		for i := k; i < n; i++ {
			buf[k], buf[i] = buf[i], buf[k]
			rec(k + 1)
			buf[k], buf[i] = buf[i], buf[k]
		}
	}
	rec(0)
}
