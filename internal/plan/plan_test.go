package plan

import (
	"strings"
	"testing"
)

func TestAddAssignsIDsInOrder(t *testing.T) {
	p := &Program{Engine: "X"}
	a := p.Add(&Op{Kind: Shuffle, Order: []string{"a", "b"}})
	b := p.Add(&Op{Kind: LeapfrogCube, Inputs: []int{a.ID}})
	c := p.Add(&Op{Kind: Emit, Inputs: []int{b.ID}})
	if a.ID != 0 || b.ID != 1 || c.ID != 2 {
		t.Fatalf("IDs = %d %d %d, want 0 1 2", a.ID, b.ID, c.ID)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddPanicsOnForwardReference(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Add accepted a forward input reference")
		}
	}()
	p := &Program{}
	p.Add(&Op{Kind: Emit, Inputs: []int{3}})
}

func TestValidateEmptyAndMisnumbered(t *testing.T) {
	if err := (&Program{}).Validate(); err == nil {
		t.Fatalf("empty program validated")
	}
	p := &Program{Ops: []*Op{{ID: 5, Kind: Emit}}}
	if err := p.Validate(); err == nil {
		t.Fatalf("misnumbered program validated")
	}
}

func TestRootsFindsUnconsumedOps(t *testing.T) {
	p := &Program{}
	s := p.Add(&Op{Kind: Shuffle})
	lf := p.Add(&Op{Kind: LeapfrogCube, Inputs: []int{s.ID}})
	em := p.Add(&Op{Kind: Emit, Inputs: []int{lf.ID}})
	roots := p.Roots()
	if len(roots) != 1 || roots[0].ID != em.ID {
		t.Fatalf("Roots = %v, want just the Emit", roots)
	}
}

func TestTreeRendersPipelineAndSharedNodes(t *testing.T) {
	p := &Program{Engine: "ADJ", Label: "plan-label"}
	s := p.Add(&Op{Kind: Shuffle, Phase: "shuffle", Order: []string{"a", "b", "c"},
		Rels: []RelRef{{Name: "R1"}, {Name: "R2"}}, ShuffleKind: "merge"})
	lf := p.Add(&Op{Kind: LeapfrogCube, Phase: "join",
		Inputs: []int{s.ID}, Order: []string{"a", "b", "c"}, Cost: Cost{Card: 1000}})
	p.Add(&Op{Kind: Emit, Inputs: []int{lf.ID}, Out: Sig{Name: "out", Attrs: []string{"a", "b", "c"}}})

	tree := p.Tree()
	for _, want := range []string{
		"ADJ: plan-label",
		"Emit",
		"LeapfrogCube",
		"Shuffle merge rels=[R1 R2]",
		"wcoj",
		"card≈1e+03",
		"phase=join",
		"└─",
	} {
		if !strings.Contains(tree, want) {
			t.Fatalf("Tree missing %q:\n%s", want, tree)
		}
	}
	// Every op renders exactly once in a linear pipeline.
	for _, label := range []string{"#0 ", "#1 ", "#2 "} {
		if n := strings.Count(tree, label); n != 1 {
			t.Fatalf("op %q rendered %d times:\n%s", label, n, tree)
		}
	}

	// A shared node renders once in full, then as a back-reference.
	p2 := &Program{Engine: "Hybrid"}
	core := p2.Add(&Op{Kind: LeapfrogCube, Out: Sig{Name: "~core"}})
	j1 := p2.Add(&Op{Kind: HashJoin, Inputs: []int{core.ID}, Left: Sig{Name: "~core"}, Right: Sig{Name: "P1"}})
	j2 := p2.Add(&Op{Kind: HashJoin, Inputs: []int{core.ID, j1.ID}, Left: Sig{Name: "I1"}, Right: Sig{Name: "P2"}})
	p2.Add(&Op{Kind: Emit, Inputs: []int{j2.ID}})
	tree2 := p2.Tree()
	if !strings.Contains(tree2, "↑") {
		t.Fatalf("shared node not back-referenced:\n%s", tree2)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Shuffle, LeapfrogCube, HashJoin, Semijoin, Project, Emit, Scatter, Extend}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Fatalf("Kind %d has no name", int(k))
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}
