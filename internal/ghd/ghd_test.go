package ghd

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"adj/internal/hypergraph"
)

func TestPaperExampleDecomposition(t *testing.T) {
	// §III-A Example 3: Q(a,b,c,d,e) with R1(a,b,c), R2(a,d), R3(c,d),
	// R4(b,e), R5(c,e) decomposes into bags {R1}, {R2⋈R3}, {R4⋈R5}.
	q := hypergraph.PaperExample()
	d, err := Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bags) != 3 {
		t.Fatalf("bags=%d want 3\n%s", len(d.Bags), d)
	}
	var sigs []string
	for _, b := range d.Bags {
		var names []string
		for _, ai := range b.Atoms {
			names = append(names, q.Atoms[ai].Name)
		}
		sort.Strings(names)
		sigs = append(sigs, strings.Join(names, "+"))
	}
	sort.Strings(sigs)
	want := []string{"R1", "R2+R3", "R4+R5"}
	for i := range want {
		if sigs[i] != want[i] {
			t.Fatalf("bags=%v want %v", sigs, want)
		}
	}
	// Bag {a,c,d} (and {b,c,e}) has fractional edge cover 1.5: the three
	// pairwise constraints force weight ≥ 1/2 on three edges.
	if math.Abs(d.MaxWidth-1.5) > 1e-6 {
		t.Fatalf("paper example fhw=%v want 1.5", d.MaxWidth)
	}
}

func TestTriangleDecomposition(t *testing.T) {
	// The triangle is cyclic: the only valid edge-partition is a single bag,
	// with fractional cover 1.5.
	d, err := Decompose(hypergraph.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bags) != 1 {
		t.Fatalf("triangle bags=%d want 1\n%s", len(d.Bags), d)
	}
	if math.Abs(d.MaxWidth-1.5) > 1e-6 {
		t.Fatalf("triangle width=%v want 1.5", d.MaxWidth)
	}
}

func TestAcyclicPathDecomposition(t *testing.T) {
	// Q9 = path a-b-c-d is acyclic: singleton bags, width 1.
	d, err := Decompose(hypergraph.Q9())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.MaxWidth-1.0) > 1e-6 {
		t.Fatalf("path width=%v want 1", d.MaxWidth)
	}
	for _, b := range d.Bags {
		if !b.IsBase() {
			t.Fatalf("acyclic query should use base bags only\n%s", d)
		}
	}
}

func TestDecompositionInvariants(t *testing.T) {
	for _, q := range hypergraph.AllQueries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			d, err := Decompose(q)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, q, d)
		})
	}
}

func checkInvariants(t *testing.T, q hypergraph.Query, d *Decomposition) {
	t.Helper()
	// Every atom in exactly one bag.
	seen := make(map[int]int)
	for _, b := range d.Bags {
		for _, ai := range b.Atoms {
			seen[ai]++
		}
	}
	if len(seen) != len(q.Atoms) {
		t.Fatalf("atoms covered=%d want %d", len(seen), len(q.Atoms))
	}
	for ai, c := range seen {
		if c != 1 {
			t.Fatalf("atom %d in %d bags", ai, c)
		}
	}
	// Tree: connected with n-1 edges.
	n := len(d.Bags)
	edges := 0
	for _, a := range d.Adj {
		edges += len(a)
	}
	edges /= 2
	if n > 1 && edges != n-1 {
		t.Fatalf("join tree edges=%d want %d", edges, n-1)
	}
	if !connected(d) {
		t.Fatal("join tree not connected")
	}
	// Running intersection: for every vertex, bags containing it form a
	// connected subtree.
	for _, v := range q.Attrs() {
		var with []int
		for _, b := range d.Bags {
			if slices.Contains(b.Vertices, v) {
				with = append(with, b.ID)
			}
		}
		if !subtreeConnected(d, with) {
			t.Fatalf("vertex %q: bags %v not connected in tree", v, with)
		}
	}
	// Widths are >= 1 for non-empty bags.
	for _, b := range d.Bags {
		if b.Width < 1-1e-9 {
			t.Fatalf("bag %d width=%v < 1", b.ID, b.Width)
		}
	}
}

func connected(d *Decomposition) bool {
	if len(d.Bags) == 0 {
		return true
	}
	vis := make([]bool, len(d.Bags))
	stack := []int{0}
	vis[0] = true
	cnt := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range d.Adj[u] {
			if !vis[w] {
				vis[w] = true
				cnt++
				stack = append(stack, w)
			}
		}
	}
	return cnt == len(d.Bags)
}

func subtreeConnected(d *Decomposition, nodes []int) bool {
	if len(nodes) <= 1 {
		return true
	}
	in := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		in[v] = true
	}
	vis := map[int]bool{nodes[0]: true}
	stack := []int{nodes[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range d.Adj[u] {
			if in[w] && !vis[w] {
				vis[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(vis) == len(nodes)
}

func TestFractionalEdgeCoverValues(t *testing.T) {
	edges := [][]string{{"a", "b"}, {"b", "c"}, {"a", "c"}}
	if w := FractionalEdgeCover([]string{"a", "b", "c"}, edges); math.Abs(w-1.5) > 1e-6 {
		t.Fatalf("triangle=%v", w)
	}
	if w := FractionalEdgeCover([]string{"a", "b"}, edges); math.Abs(w-1.0) > 1e-6 {
		t.Fatalf("single edge=%v", w)
	}
	if w := FractionalEdgeCover(nil, edges); w != 0 {
		t.Fatalf("empty=%v", w)
	}
	// 4-clique: cover number 2 (perfect matching of 2 edges).
	k4 := [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}, {"a", "c"}, {"b", "d"}}
	if w := FractionalEdgeCover([]string{"a", "b", "c", "d"}, k4); math.Abs(w-2.0) > 1e-6 {
		t.Fatalf("K4=%v want 2", w)
	}
	if w := FractionalEdgeCover([]string{"a"}, [][]string{{"b"}}); w < 1e17 {
		t.Fatalf("uncoverable vertex must give huge width, got %v", w)
	}
}

func TestK5Cover(t *testing.T) {
	q := hypergraph.Q3() // 5-clique
	h := q.Hypergraph()
	w := FractionalEdgeCover(h.Vertices, h.Edges)
	if math.Abs(w-2.5) > 1e-6 {
		t.Fatalf("K5 fractional cover=%v want 2.5", w)
	}
}

func TestTraversalOrders(t *testing.T) {
	q := hypergraph.PaperExample()
	d, err := Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	orders := d.TraversalOrders()
	// Path of 3 bags has 4 prefix-connected orders:
	// (mid first: 2) + (ends first: 1 each) = v0v1v2, v1v0v2, v1v2v0, v2v1v0.
	if len(orders) != 4 {
		t.Fatalf("traversal orders=%d want 4: %v", len(orders), orders)
	}
	for _, o := range orders {
		for i := 1; i < len(o); i++ {
			if !d.adjacentToAny(o[i], o[:i]) {
				t.Fatalf("order %v has disconnected prefix", o)
			}
		}
	}
}

func TestValidAttrOrders(t *testing.T) {
	q := hypergraph.PaperExample()
	d, err := Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	valid := d.ValidAttrOrders()
	if len(valid) == 0 {
		t.Fatal("no valid orders")
	}
	// Paper's example: a ≺ b ≺ c ≺ d ≺ e is valid, a ≺ b ≺ e ≺ d ≺ c invalid.
	if !d.IsValidAttrOrder([]string{"a", "b", "c", "d", "e"}) {
		t.Errorf("a,b,c,d,e should be valid")
	}
	if d.IsValidAttrOrder([]string{"a", "b", "e", "d", "c"}) {
		t.Errorf("a,b,e,d,c should be invalid")
	}
	// All valid orders are permutations of the attrs.
	attrs := q.Attrs()
	for _, o := range valid {
		if len(o) != len(attrs) {
			t.Fatalf("order %v wrong length", o)
		}
	}
	// Valid ⊂ all orders, strictly for this query.
	all := AllAttrOrders(attrs)
	if len(valid) >= len(all) {
		t.Fatalf("valid=%d should be < all=%d", len(valid), len(all))
	}
}

func TestSingleBagAllOrdersValid(t *testing.T) {
	d, err := Decompose(hypergraph.Q1())
	if err != nil {
		t.Fatal(err)
	}
	valid := d.ValidAttrOrders()
	all := AllAttrOrders(hypergraph.Q1().Attrs())
	if len(valid) != len(all) {
		t.Fatalf("single bag: valid=%d all=%d should match", len(valid), len(all))
	}
}
