package trie

import (
	"math/rand"
	"testing"

	"adj/internal/relation"
)

// randomRel builds a random relation; small domains force shared prefixes
// and duplicate rows, the shapes that stress the trie fill.
func randomRel(rng *rand.Rand, arity, n, domain int) *relation.Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = string(rune('a' + i))
	}
	r := relation.New("R", attrs...)
	row := make([]relation.Value, arity)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.Intn(domain))
		}
		r.AppendTuple(row)
	}
	return r
}

// TestMergeUnaryTries is the regression test for the arity-1 merge path:
// the first merged value is the real minimum, not a zero value (which an
// earlier tuple-stream merge produced by opening its iterator twice).
func TestMergeUnaryTries(t *testing.T) {
	a := Build(relation.FromTuples("A", []string{"x"}, [][]relation.Value{{5}, {1}, {9}}), []string{"x"})
	b := Build(relation.FromTuples("B", []string{"x"}, [][]relation.Value{{2}, {9}, {4}}), []string{"x"})
	c := Build(relation.FromTuples("C", []string{"x"}, [][]relation.Value{{1}, {7}}), []string{"x"})
	m := Merge([]*Trie{a, b, c})
	got := m.ToRelation("m")
	want := relation.FromTuples("m", []string{"x"}, [][]relation.Value{{1}, {2}, {4}, {5}, {7}, {9}})
	if !got.Equal(want) {
		t.Fatalf("unary merge = %v, want %v", got, want)
	}
	if m.NumTuples != 6 {
		t.Fatalf("NumTuples=%d", m.NumTuples)
	}
	// First value must be the true minimum — the zero-value symptom of the
	// descent bug would surface as a leading 0.
	if m.Levels[0].Vals[0] != 1 {
		t.Fatalf("first merged value = %d, want 1", m.Levels[0].Vals[0])
	}
}

// TestMergeUnaryViaCodec mirrors the real Merge-HCube path: unary block
// tries are encoded, shipped, decoded and merged at the receiver.
func TestMergeUnaryViaCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 40; iter++ {
		nblocks := 1 + rng.Intn(4)
		var tries []*Trie
		union := relation.New("u", "x")
		for b := 0; b < nblocks; b++ {
			blk := randomRel(rng, 1, rng.Intn(30), 15)
			blk.Attrs[0] = "x"
			union.AppendAll(blk)
			bt := Build(blk, []string{"x"})
			dec, err := Decode(AppendEncode(nil, bt))
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			tries = append(tries, dec)
		}
		got := Merge(tries).ToRelation("u")
		want := union.SortDedup()
		if !got.Equal(want) {
			t.Fatalf("iter %d: merged %v want %v", iter, got, want)
		}
	}
}

// TestMergePropertyAllArities extends the merge property over arities
// 1..3 (the seed property test only covered binary tries).
func TestMergePropertyAllArities(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 80; iter++ {
		arity := 1 + rng.Intn(3)
		nblocks := 1 + rng.Intn(5)
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = string(rune('a' + i))
		}
		union := relation.New("u", attrs...)
		var tries []*Trie
		for b := 0; b < nblocks; b++ {
			blk := randomRel(rng, arity, rng.Intn(40), 6)
			union.AppendAll(blk)
			tries = append(tries, Build(blk, attrs))
		}
		got := Merge(tries).ToRelation("u")
		want := union.SortDedup()
		if !got.Equal(want) {
			t.Fatalf("iter %d (arity=%d blocks=%d): merge mismatch", iter, arity, nblocks)
		}
	}
}
