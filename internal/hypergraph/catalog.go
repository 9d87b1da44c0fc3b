package hypergraph

import "fmt"

// The benchmark query catalog of the paper (Fig. 7): subgraph queries with
// 3–5 nodes over a single edge relation. Q1–Q6 are the hard, cyclic queries
// the evaluation reports in detail; Q7–Q11 are the easy ones the paper
// omits results for. The paper gives Q1–Q6 explicitly (§VII-A); Q7–Q11 are
// only drawn, so we use standard easy patterns of the right sizes
// (documented in DESIGN.md).

func edge(name, a, b string) Atom { return Atom{Name: name, Attrs: []string{a, b}} }

func q(name string, atoms ...Atom) Query { return Query{Name: name, Atoms: atoms} }

// Catalog returns all benchmark queries keyed by name.
func Catalog() map[string]Query {
	m := make(map[string]Query)
	for _, qq := range AllQueries() {
		m[qq.Name] = qq
	}
	return m
}

// Get looks up a catalog query and panics on unknown names (the callers are
// benchmark harnesses where a typo should fail loudly).
func Get(name string) Query {
	qq, ok := Catalog()[name]
	if !ok {
		panic(fmt.Sprintf("hypergraph: unknown catalog query %q", name))
	}
	return qq
}

// AllQueries returns Q1..Q11 in order.
func AllQueries() []Query {
	return []Query{Q1(), Q2(), Q3(), Q4(), Q5(), Q6(), Q7(), Q8(), Q9(), Q10(), Q11()}
}

// Q1 is the triangle query.
func Q1() Query {
	return q("Q1",
		edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "a", "c"))
}

// Q2 is the 4-clique.
func Q2() Query {
	return q("Q2",
		edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "c", "d"),
		edge("R4", "d", "a"), edge("R5", "a", "c"), edge("R6", "b", "d"))
}

// Q3 is the 5-clique.
func Q3() Query {
	return q("Q3",
		edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "c", "d"),
		edge("R4", "d", "e"), edge("R5", "e", "a"), edge("R6", "b", "d"),
		edge("R7", "b", "e"), edge("R8", "c", "a"), edge("R9", "c", "e"),
		edge("R10", "a", "d"))
}

// Q4 is the 5-cycle with chord (b,e).
func Q4() Query {
	return q("Q4",
		edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "c", "d"),
		edge("R4", "d", "e"), edge("R5", "e", "a"), edge("R6", "b", "e"))
}

// Q5 is Q4 plus chord (b,d).
func Q5() Query {
	return q("Q5",
		edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "c", "d"),
		edge("R4", "d", "e"), edge("R5", "e", "a"), edge("R6", "b", "e"),
		edge("R7", "b", "d"))
}

// Q6 is Q5 plus chord (c,e).
func Q6() Query {
	return q("Q6",
		edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "c", "d"),
		edge("R4", "d", "e"), edge("R5", "e", "a"), edge("R6", "b", "e"),
		edge("R7", "b", "d"), edge("R8", "c", "e"))
}

// Q7 is the length-2 path (easy; acyclic).
func Q7() Query {
	return q("Q7", edge("R1", "a", "b"), edge("R2", "b", "c"))
}

// Q8 is the 3-star (easy; acyclic).
func Q8() Query {
	return q("Q8", edge("R1", "a", "b"), edge("R2", "a", "c"), edge("R3", "a", "d"))
}

// Q9 is the length-3 path (easy; acyclic).
func Q9() Query {
	return q("Q9", edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "c", "d"))
}

// Q10 is the 4-cycle (cyclic but cheap: bounded output on sparse graphs).
func Q10() Query {
	return q("Q10",
		edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "c", "d"),
		edge("R4", "d", "a"))
}

// Q11 is the tailed triangle: triangle (a,b,c) with pendant edge (c,d).
func Q11() Query {
	return q("Q11",
		edge("R1", "a", "b"), edge("R2", "b", "c"), edge("R3", "a", "c"),
		edge("R4", "c", "d"))
}

// PaperExample is the running example of §II (Eq. 2 / Fig. 2): five
// relations of mixed arity whose hypertree has bags {R1}, {R2,R3}, {R4,R5}.
func PaperExample() Query {
	return q("Qpaper",
		Atom{Name: "R1", Attrs: []string{"a", "b", "c"}},
		Atom{Name: "R2", Attrs: []string{"a", "d"}},
		Atom{Name: "R3", Attrs: []string{"c", "d"}},
		Atom{Name: "R4", Attrs: []string{"b", "e"}},
		Atom{Name: "R5", Attrs: []string{"c", "e"}})
}
