// Package hypergraph models natural-join queries as hypergraphs (§II of the
// paper): vertices are query attributes, hyperedges are atom schemas. It
// also carries the paper's benchmark query catalog Q1–Q11 (Fig. 7).
package hypergraph

import (
	"fmt"
	"slices"
	"strings"

	"adj/internal/relation"
)

// Atom is one relation occurrence in a join query, e.g. R1(a,b).
type Atom struct {
	Name  string
	Attrs []string
}

func (a Atom) String() string {
	return fmt.Sprintf("%s(%s)", a.Name, strings.Join(a.Attrs, ","))
}

// Query is a natural join query Q :- R1(...) ⋈ ... ⋈ Rm(...).
type Query struct {
	Name  string
	Atoms []Atom
}

// Attrs returns the query attributes attrs(Q) in order of first appearance.
func (q Query) Attrs() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Attrs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Validate rejects a query no engine can answer: an atom that repeats an
// attribute (E(a,a)), or two atoms with the same relation name. Engines key
// worker fragments by atom name and bind one column per attribute, so both
// shapes would be misread rather than refused.
func (q Query) Validate() error {
	seen := make(map[string]Atom, len(q.Atoms))
	for _, a := range q.Atoms {
		for i, v := range a.Attrs {
			if slices.Contains(a.Attrs[:i], v) {
				return fmt.Errorf("query %s: atom %s repeats attribute %q", q.Name, a, v)
			}
		}
		if prev, ok := seen[a.Name]; ok {
			return fmt.Errorf("query %s: atoms %s and %s share the relation name %q", q.Name, prev, a, a.Name)
		}
		seen[a.Name] = a
	}
	return nil
}

// String renders the query in the paper's notation.
func (q Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s :- %s", q.Name, strings.Join(parts, " ⋈ "))
}

// Hypergraph returns the hypergraph representation H = (V, E).
func (q Query) Hypergraph() *Hypergraph {
	h := &Hypergraph{Vertices: q.Attrs()}
	for _, a := range q.Atoms {
		h.Edges = append(h.Edges, append([]string(nil), a.Attrs...))
	}
	return h
}

// Hypergraph is H = (V, E): V the attributes, E the atom schemas.
type Hypergraph struct {
	Vertices []string
	Edges    [][]string
}

// Database maps atom names to base relations.
type Database map[string]*relation.Relation

// Bind instantiates the query atoms against db: each atom's relation is
// looked up by name and its schema renamed to the atom's attributes. The
// returned relations share tuple storage with the originals (no copy).
func (q Query) Bind(db Database) ([]*relation.Relation, error) {
	out := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, ok := db[a.Name]
		if !ok {
			return nil, fmt.Errorf("query %s: relation %q not in database", q.Name, a.Name)
		}
		if r.Arity() != len(a.Attrs) {
			return nil, fmt.Errorf("query %s: atom %s arity %d != relation arity %d",
				q.Name, a, len(a.Attrs), r.Arity())
		}
		b := r.Renamed(a.Name)
		b.Attrs = append([]string(nil), a.Attrs...)
		out[i] = b
	}
	return out, nil
}

// BindGraph builds the paper's test-case database: every atom of q is a
// copy of the same graph edge relation (§VII-A: "the database is
// constructed by allocating each relation of the query with a copy of the
// graph").
func (q Query) BindGraph(edges *relation.Relation) []*relation.Relation {
	if edges.Arity() != 2 {
		panic("BindGraph requires a binary edge relation")
	}
	out := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		if len(a.Attrs) != 2 {
			panic(fmt.Sprintf("BindGraph: atom %s is not binary", a))
		}
		b := edges.Renamed(a.Name)
		b.Attrs = append([]string(nil), a.Attrs...)
		out[i] = b
	}
	return out
}
