// Package testutil provides deterministic random instance generators shared
// by the test suites: random relations, random graph databases bound to the
// catalog queries, and comparison helpers against the naive join oracle.
package testutil

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// RandRelation builds a random relation with the given schema: n tuples
// with values drawn uniformly from [0, domain).
func RandRelation(rng *rand.Rand, name string, attrs []string, n int, domain int64) *relation.Relation {
	r := relation.NewWithCapacity(name, n, attrs...)
	row := make([]relation.Value, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Int63n(domain)
		}
		r.AppendTuple(row)
	}
	return r
}

// RandEdges builds a random simple directed edge relation with ~n edges
// over `nodes` vertices (duplicates removed).
func RandEdges(rng *rand.Rand, name string, n int, nodes int64) *relation.Relation {
	r := relation.NewWithCapacity(name, n, "src", "dst")
	for i := 0; i < n; i++ {
		r.Append(rng.Int63n(nodes), rng.Int63n(nodes))
	}
	return r.SortDedup()
}

// CubedEdges is RandEdges with every vertex id v replaced by v³: the same
// graph in the same row order, whose trie roots are dense at small ids and
// sparse at large ones, so their directories hold crowded buckets.
func CubedEdges(rng *rand.Rand, name string, n int, nodes int64) *relation.Relation {
	e := RandEdges(rng, name, n, nodes)
	cols := make([][]relation.Value, 2)
	for i, c := range e.Columns() {
		cols[i] = make([]relation.Value, len(c))
		for j, v := range c {
			cols[i][j] = v * v * v
		}
	}
	return relation.FromColumns(name, e.Attrs, cols)
}

// Golden compares got with the golden file at path, or rewrites the file
// when update is set (each test package defines its own -update flag).
// A mismatch names the first differing line.
func Golden(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}

// RandQueryInstance generates a random query (random binary atoms over a
// small attribute alphabet, guaranteed connected) and a random database for
// it. Used by cross-engine equivalence property tests.
func RandQueryInstance(rng *rand.Rand, maxAtoms, maxAttrs int, tuples int, domain int64) (hypergraph.Query, []*relation.Relation) {
	attrsAll := []string{"a", "b", "c", "d", "e", "f"}
	if maxAttrs > len(attrsAll) {
		maxAttrs = len(attrsAll)
	}
	nAttrs := 2 + rng.Intn(maxAttrs-1)
	attrs := attrsAll[:nAttrs]
	nAtoms := 2 + rng.Intn(maxAtoms-1)
	var q hypergraph.Query
	q.Name = "Qrand"
	for i := 0; i < nAtoms; i++ {
		// Pick 2 distinct attributes; chain the first atom's attrs to keep
		// the query connected: atom i shares an attribute with atom i-1.
		var a1 string
		if i == 0 {
			a1 = attrs[rng.Intn(len(attrs))]
		} else {
			prev := q.Atoms[i-1].Attrs
			a1 = prev[rng.Intn(len(prev))]
		}
		a2 := attrs[rng.Intn(len(attrs))]
		for a2 == a1 {
			a2 = attrs[rng.Intn(len(attrs))]
		}
		q.Atoms = append(q.Atoms, hypergraph.Atom{
			Name:  atomName(i),
			Attrs: []string{a1, a2},
		})
	}
	rels := make([]*relation.Relation, nAtoms)
	for i, at := range q.Atoms {
		rels[i] = RandRelation(rng, at.Name, at.Attrs, tuples, domain).SortDedup()
	}
	return q, rels
}

func atomName(i int) string {
	return "R" + string(rune('1'+i))
}

// RandMixedQueryInstance is RandQueryInstance with atom arities 1–3,
// exercising the non-binary paths (the paper's running example has a
// ternary relation).
func RandMixedQueryInstance(rng *rand.Rand, maxAtoms, maxAttrs int, tuples int, domain int64) (hypergraph.Query, []*relation.Relation) {
	attrsAll := []string{"a", "b", "c", "d", "e", "f"}
	if maxAttrs > len(attrsAll) {
		maxAttrs = len(attrsAll)
	}
	nAttrs := 2 + rng.Intn(maxAttrs-1)
	attrs := attrsAll[:nAttrs]
	nAtoms := 2 + rng.Intn(maxAtoms-1)
	var q hypergraph.Query
	q.Name = "Qmix"
	for i := 0; i < nAtoms; i++ {
		arity := 1 + rng.Intn(3)
		if arity > nAttrs {
			arity = nAttrs
		}
		// Keep the query connected: reuse an attribute of the previous atom.
		var first string
		if i == 0 {
			first = attrs[rng.Intn(len(attrs))]
		} else {
			prev := q.Atoms[i-1].Attrs
			first = prev[rng.Intn(len(prev))]
		}
		atomAttrs := []string{first}
		for len(atomAttrs) < arity {
			a := attrs[rng.Intn(len(attrs))]
			dup := false
			for _, x := range atomAttrs {
				if x == a {
					dup = true
					break
				}
			}
			if !dup {
				atomAttrs = append(atomAttrs, a)
			}
		}
		q.Atoms = append(q.Atoms, hypergraph.Atom{Name: atomName(i), Attrs: atomAttrs})
	}
	rels := make([]*relation.Relation, nAtoms)
	for i, at := range q.Atoms {
		rels[i] = RandRelation(rng, at.Name, at.Attrs, tuples, domain).SortDedup()
	}
	return q, rels
}
