package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adj/internal/relation"
)

// buildReference is the pre-Builder pipeline (materialize the permuted
// relation, SortDedup, FromSorted), kept as the test oracle and the
// benchmark baseline for the radix builder.
func buildReference(r *relation.Relation, attrs []string) *Trie {
	cols := attrIdx(r, attrs)
	perm := relation.NewWithCapacity(r.Name, r.Len(), attrs...)
	row := make([]Value, len(attrs))
	for i, n := 0, r.Len(); i < n; i++ {
		t := r.Tuple(i)
		for j, c := range cols {
			row[j] = t[c]
		}
		perm.AppendTuple(row)
	}
	perm.SortDedup()
	return FromSorted(perm)
}

// attrIdx returns the column positions of attrs in r.
func attrIdx(r *relation.Relation, attrs []string) []int {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		idx[i] = r.AttrIndex(a)
	}
	return idx
}

func triesEqual(a, b *Trie) bool {
	if a.NumTuples != b.NumTuples || a.Arity() != b.Arity() {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for d := range a.Levels {
		la, lb := a.Levels[d], b.Levels[d]
		if len(la.Vals) != len(lb.Vals) || len(la.Starts) != len(lb.Starts) {
			return false
		}
		for i := range la.Vals {
			if la.Vals[i] != lb.Vals[i] {
				return false
			}
		}
		for i := range la.Starts {
			if la.Starts[i] != lb.Starts[i] {
				return false
			}
		}
	}
	return true
}

// Property: the radix builder produces a structurally identical trie to the
// reference sort+dedup pipeline on randomized relations — including
// permuted column orders, duplicates, negative values, sizes on both
// sides of the insertion-sort/radix cutoff, and pre-sorted input (the
// builder's no-sort path).
func TestBuilderMatchesReference(t *testing.T) {
	b := NewBuilder()
	f := func(seed int64, arityRaw, sizeClass uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := int(arityRaw%4) + 1
		var n int
		switch sizeClass % 3 {
		case 0:
			n = rng.Intn(20) // insertion-sort path
		case 1:
			n = 48 + rng.Intn(100) // radix path
		default:
			n = 300 + rng.Intn(500)
		}
		names := []string{"a", "b", "c", "d"}[:arity]
		r := relation.New("R", names...)
		row := make([]Value, arity)
		for i := 0; i < n; i++ {
			for j := range row {
				switch rng.Intn(3) {
				case 0:
					row[j] = rng.Int63n(5) // heavy duplication
				case 1:
					row[j] = rng.Int63n(1 << 20)
				default:
					row[j] = rng.Int63() - rng.Int63() // wide, signed
				}
			}
			r.AppendTuple(row)
		}
		attrs := append([]string(nil), names...)
		rng.Shuffle(arity, func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		if rng.Intn(3) == 0 {
			r.SortByColumns(attrIdx(r, attrs))
		}
		want := buildReference(r, attrs)
		if !triesEqual(b.Build(r, attrs), want) {
			return false
		}
		// The pooled package-level Build must agree too.
		return triesEqual(Build(r, attrs), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// A builder must be reusable across relations of different shapes.
func TestBuilderReuseAcrossShapes(t *testing.T) {
	b := NewBuilder()
	r3 := relation.FromTuples("R", []string{"x", "y", "z"},
		[][]Value{{3, 1, 2}, {1, 1, 1}, {3, 1, 2}})
	t3 := b.Build(r3, []string{"x", "y", "z"})
	if t3.Len() != 2 {
		t.Fatalf("arity-3 build: %d tuples, want 2", t3.Len())
	}
	r1 := relation.FromTuples("S", []string{"a"}, [][]Value{{5}, {-2}, {5}})
	t1 := b.Build(r1, []string{"a"})
	if t1.Len() != 2 || t1.Levels[0].Vals[0] != -2 {
		t.Fatalf("arity-1 build after arity-3: %v", t1.Levels[0].Vals)
	}
	empty := b.Build(relation.New("E", "a", "b"), []string{"b", "a"})
	if empty.Len() != 0 || len(empty.Levels[0].Starts) != 2 {
		t.Fatalf("empty build shape: %+v", empty.Levels)
	}
}

// Regression: SiblingCount must measure the current node's sibling range,
// not the distance from the whole level's start. Under parent a=1 the b
// range has 3 siblings, under a=2 it has 1 — the old code reported 4 for
// the second parent.
func TestSiblingCountPerParent(t *testing.T) {
	r := relation.FromTuples("R", []string{"a", "b"},
		[][]Value{{1, 10}, {1, 11}, {1, 12}, {2, 20}})
	it := NewIterator(Build(r, []string{"a", "b"}))
	it.Open() // a=1
	it.Open() // b under a=1
	if got := it.SiblingCount(); got != 3 {
		t.Fatalf("siblings under a=1: %d want 3", got)
	}
	it.Up()
	it.Next() // a=2
	it.Open() // b under a=2
	if got := it.SiblingCount(); got != 1 {
		t.Fatalf("siblings under a=2: %d want 1", got)
	}
	it.Up()
	if got := it.SiblingCount(); got != 2 {
		t.Fatalf("siblings at level a: %d want 2", got)
	}
}

func TestIteratorInitReuse(t *testing.T) {
	t1 := Build(relation.FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}}), []string{"a", "b"})
	t2 := Build(relation.FromTuples("S", []string{"x"}, [][]Value{{7}, {9}}), []string{"x"})
	var it Iterator
	it.Init(t1)
	it.Open()
	it.Open()
	if it.Key() != 2 {
		t.Fatalf("t1 leaf=%d", it.Key())
	}
	it.Init(t2)
	it.Open()
	if it.Key() != 7 || it.Depth() != 0 {
		t.Fatalf("after re-init: key=%d depth=%d", it.Key(), it.Depth())
	}
}

func randomGraphRelation(n int) *relation.Relation {
	rng := rand.New(rand.NewSource(1))
	r := relation.NewWithCapacity("E", n, "src", "dst")
	for i := 0; i < n; i++ {
		r.Append(rng.Int63n(int64(n/8+1)), rng.Int63n(int64(n/8+1)))
	}
	return r
}

func BenchmarkBuild(b *testing.B) {
	r := randomGraphRelation(40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(r, []string{"src", "dst"})
	}
}

func BenchmarkBuildReference(b *testing.B) {
	r := randomGraphRelation(40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildReference(r, []string{"src", "dst"})
	}
}
