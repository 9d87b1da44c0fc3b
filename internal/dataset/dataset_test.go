package dataset

import (
	"bytes"
	"strings"
	"testing"

	"adj/internal/relation"
)

func TestNamedDatasetsGenerate(t *testing.T) {
	var prev int
	for _, name := range Names() {
		r := Load(name, 0.1)
		if r.Len() == 0 {
			t.Fatalf("%s: empty", name)
		}
		if r.Arity() != 2 {
			t.Fatalf("%s: arity %d", name, r.Arity())
		}
		// Size ordering must match the paper: WB < AS < WT < LJ < EN < OK.
		if r.Len() <= prev {
			t.Fatalf("%s: size %d not larger than previous %d", name, r.Len(), prev)
		}
		prev = r.Len()
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(SpecOf("LJ", 0.05))
	b := Generate(SpecOf("LJ", 0.05))
	if !a.Equal(b) {
		t.Fatal("generation must be deterministic")
	}
}

func TestLoadMemoizes(t *testing.T) {
	a := Load("WB", 0.05)
	b := Load("WB", 0.05)
	if a != b {
		t.Fatal("Load should memoize")
	}
}

func TestNoSelfLoopsNoDuplicates(t *testing.T) {
	for _, name := range Names() {
		r := Load(name, 0.05)
		seen := make(map[[2]relation.Value]bool, r.Len())
		for i := 0; i < r.Len(); i++ {
			tu := r.Tuple(i)
			if tu[0] == tu[1] {
				t.Fatalf("%s: self loop %v", name, tu)
			}
			k := [2]relation.Value{tu[0], tu[1]}
			if seen[k] {
				t.Fatalf("%s: duplicate edge %v", name, tu)
			}
			seen[k] = true
		}
	}
}

func TestHeavyTail(t *testing.T) {
	// Preferential attachment graphs must have a hub with degree far above
	// average — the skew complex-join hardness depends on.
	r := Load("WT", 0.25)
	st := StatsOf("WT", r)
	if float64(st.MaxOut) < 5*st.AvgDegree {
		t.Fatalf("WT max degree %d not heavy-tailed (avg %.1f)", st.MaxOut, st.AvgDegree)
	}
}

func TestUniformNotHeavyTailed(t *testing.T) {
	r := Generate(Spec{Name: "U", Kind: Uniform, Edges: 20000, NodesPerEdge: 10, Seed: 9})
	st := StatsOf("U", r)
	if float64(st.MaxOut) > 8*st.AvgDegree {
		t.Fatalf("uniform graph unexpectedly skewed: max %d avg %.1f", st.MaxOut, st.AvgDegree)
	}
}

func TestCommunityGraphConnectsAcross(t *testing.T) {
	r := Generate(Spec{Name: "C", Kind: Community, Edges: 10000, NodesPerEdge: 10, Communities: 4, Seed: 3})
	if r.Len() < 5000 {
		t.Fatalf("too few edges: %d", r.Len())
	}
}

func TestSpecOfScaling(t *testing.T) {
	s1 := SpecOf("LJ", 1)
	s2 := SpecOf("LJ", 0.5)
	if s2.Edges >= s1.Edges {
		t.Fatalf("scaling failed: %d vs %d", s2.Edges, s1.Edges)
	}
	if got := SpecOf("LJ", 0); got.Edges != s1.Edges {
		t.Fatal("scale 0 should default to 1")
	}
}

func TestSpecOfUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpecOf("NOPE", 1)
}

func TestSNAPRoundtrip(t *testing.T) {
	r := Load("WB", 0.05)
	var buf bytes.Buffer
	if err := WriteSNAP(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSNAP(&buf, "WB")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r.Renamed("WB")) {
		t.Fatalf("roundtrip mismatch: %d vs %d edges", back.Len(), r.Len())
	}
}

func TestSNAPParsing(t *testing.T) {
	in := "# comment\n1\t2\n3 4\n\n% another comment\n2\t1\n"
	r, err := ReadSNAP(strings.NewReader(in), "g")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("edges=%d want 3", r.Len())
	}
}

func TestSNAPErrors(t *testing.T) {
	if _, err := ReadSNAP(strings.NewReader("1\n"), "g"); err == nil {
		t.Fatal("expected error for one-field line")
	}
	if _, err := ReadSNAP(strings.NewReader("a b\n"), "g"); err == nil {
		t.Fatal("expected error for non-numeric")
	}
	// Self loops silently dropped.
	r, err := ReadSNAP(strings.NewReader("1 1\n1 2\n"), "g")
	if err != nil || r.Len() != 1 {
		t.Fatalf("self loop handling: %v len=%d", err, r.Len())
	}
}

func TestStatsOf(t *testing.T) {
	r := relation.FromTuples("g", []string{"src", "dst"}, [][]relation.Value{
		{1, 2}, {1, 3}, {2, 3},
	})
	st := StatsOf("g", r)
	if st.Edges != 3 || st.Nodes != 3 || st.MaxOut != 2 || st.MaxIn != 2 {
		t.Fatalf("stats=%+v", st)
	}
}
