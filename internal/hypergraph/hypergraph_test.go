package hypergraph

import (
	"reflect"
	"testing"

	"adj/internal/relation"
)

func TestQueryAttrsOrder(t *testing.T) {
	q := Q4()
	if !reflect.DeepEqual(q.Attrs(), []string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("attrs=%v", q.Attrs())
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	for i := 1; i <= 11; i++ {
		name := "Q" + string(rune('0'+i))
		if i >= 10 {
			name = "Q1" + string(rune('0'+i-10))
		}
		if _, ok := cat[name]; !ok {
			t.Fatalf("catalog missing %s", name)
		}
	}
	if len(AllQueries()) != 11 {
		t.Fatalf("AllQueries=%d", len(AllQueries()))
	}
}

func TestGetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Get("Q99")
}

func TestQueryShapes(t *testing.T) {
	// Q2 is the 4-clique: 6 edges over 4 attrs.
	q2 := Q2()
	if len(q2.Atoms) != 6 || len(q2.Attrs()) != 4 {
		t.Fatalf("Q2: %d atoms %d attrs", len(q2.Atoms), len(q2.Attrs()))
	}
	// Q3 is the 5-clique: 10 edges over 5 attrs.
	q3 := Q3()
	if len(q3.Atoms) != 10 || len(q3.Attrs()) != 5 {
		t.Fatalf("Q3: %d atoms %d attrs", len(q3.Atoms), len(q3.Attrs()))
	}
	// Each of Q4..Q6 adds one chord.
	if len(Q5().Atoms) != len(Q4().Atoms)+1 || len(Q6().Atoms) != len(Q5().Atoms)+1 {
		t.Fatal("Q4/Q5/Q6 chord progression broken")
	}
}

func TestBindDatabase(t *testing.T) {
	q := Q7()
	edges := relation.FromTuples("E", []string{"x", "y"}, [][]relation.Value{{1, 2}})
	db := Database{"R1": edges, "R2": edges}
	rels, err := q.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rels[0].Attrs, []string{"a", "b"}) {
		t.Fatalf("bound attrs=%v", rels[0].Attrs)
	}
	if rels[0].Len() != 1 {
		t.Fatal("bind lost tuples")
	}
	// Missing relation errors.
	if _, err := q.Bind(Database{"R1": edges}); err == nil {
		t.Fatal("expected error for missing R2")
	}
	// Arity mismatch errors.
	tri := relation.New("R2", "x", "y", "z")
	if _, err := q.Bind(Database{"R1": edges, "R2": tri}); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestBindGraph(t *testing.T) {
	q := Q1()
	edges := relation.FromTuples("E", []string{"src", "dst"}, [][]relation.Value{{1, 2}, {2, 3}})
	rels := q.BindGraph(edges)
	if len(rels) != 3 {
		t.Fatalf("bound %d relations", len(rels))
	}
	for i, r := range rels {
		if r.Len() != 2 {
			t.Fatalf("rel %d lost tuples", i)
		}
		if !reflect.DeepEqual(r.Attrs, q.Atoms[i].Attrs) {
			t.Fatalf("rel %d attrs %v", i, r.Attrs)
		}
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("Qx :- R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "Qx" || len(q.Atoms) != 3 {
		t.Fatalf("parsed %v", q)
	}
	if !reflect.DeepEqual(q.Atoms[1], Atom{Name: "R2", Attrs: []string{"b", "c"}}) {
		t.Fatalf("atom=%v", q.Atoms[1])
	}
}

func TestParseQuerySeparators(t *testing.T) {
	for _, in := range []string{
		"R1(a,b), R2(b,c)",
		"R1(a, b) JOIN R2(b, c)",
		"R1(a,b)\nR2(b,c)",
	} {
		q, err := ParseQuery(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(q.Atoms) != 2 {
			t.Fatalf("%q: %d atoms", in, len(q.Atoms))
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"R1",
		"R1(a,b) R1(b,c)", // duplicate name
		"R1(a,a)",         // repeated attribute
		"R1(a,",
		"(a,b)",
	} {
		if _, err := ParseQuery(in); err == nil {
			t.Fatalf("%q: expected error", in)
		}
	}
}

func TestParseRoundtripCatalog(t *testing.T) {
	for _, q := range AllQueries() {
		back, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if back.Name != q.Name || len(back.Atoms) != len(q.Atoms) {
			t.Fatalf("%s roundtrip mismatch", q.Name)
		}
	}
}
