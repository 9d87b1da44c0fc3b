package trie

import (
	"math/rand"
	"testing"

	"adj/internal/relation"
)

func randBlocks(rng *rand.Rand, nblocks, rows int) []*Trie {
	out := make([]*Trie, nblocks)
	for b := range out {
		r := relation.New("B", "a", "b", "c")
		for i := 0; i < rows; i++ {
			r.Append(rng.Int63n(200), rng.Int63n(200), rng.Int63n(200))
		}
		out[b] = Build(r, []string{"a", "b", "c"})
	}
	return out
}

// Merging must be reuse-safe: repeated merges from the pooled state give
// identical results, inputs stay untouched, and the returned trie is
// independent of later merges mutating the pooled scratch.
func TestMergePooledReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blocks := randBlocks(rng, 6, 120)
	before := make([]string, len(blocks))
	for i, b := range blocks {
		before[i] = b.ToRelation("x").String()
	}
	first := Merge(blocks)
	want := first.ToRelation("m").String()
	// Churn the pool with unrelated merges, then re-check the first result.
	for i := 0; i < 10; i++ {
		other := randBlocks(rng, 4, 80)
		if got := Merge(other); got.NumTuples == 0 {
			t.Fatal("churn merge produced empty trie")
		}
	}
	if got := first.ToRelation("m").String(); got != want {
		t.Fatal("earlier merge result changed after later merges reused the pool")
	}
	if got := Merge(blocks).ToRelation("m").String(); got != want {
		t.Fatal("repeated merge of same inputs differs")
	}
	for i, b := range blocks {
		if b.ToRelation("x").String() != before[i] {
			t.Fatalf("merge mutated input trie %d", i)
		}
	}
	// Single non-empty input: returned as-is (the block cache's sharing
	// fast path).
	single := []*Trie{nil, blocks[0], {}}
	if got := Merge(single); got != blocks[0] {
		t.Fatal("single-input merge must alias the input")
	}
}

// Merge(parts) is the trie Build makes from the parts' union, not just the
// same tuples: every level's Vals and Starts, NumTuples and the root
// directory agree, over arities 1–4, 1–8 parts, empty parts, parts that
// crossed the codec and domains from a few values (every node shared) to
// hundreds (most subtrees held by one part and copied whole).
func TestMergeLayoutMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 1500; iter++ {
		arity := 1 + rng.Intn(4)
		nparts := 1 + rng.Intn(8)
		domain := []int{2, 6, 40, 400}[rng.Intn(4)]
		union := randomRel(rng, arity, 0, 1)
		parts := make([]*Trie, nparts)
		for p := range parts {
			n := rng.Intn(120)
			if rng.Intn(5) == 0 {
				n = 0
			}
			blk := randomRel(rng, arity, n, domain)
			union.AppendAll(blk)
			parts[p] = Build(blk, blk.Attrs)
			if rng.Intn(2) == 0 {
				dec, err := Decode(Encode(parts[p]))
				if err != nil {
					t.Fatal(err)
				}
				parts[p] = dec
			}
		}
		if diff := LayoutDiff(Merge(parts), Build(union, union.Attrs)); diff != "" {
			t.Fatalf("iter %d (arity %d, %d parts, domain %d): %s", iter, arity, nparts, domain, diff)
		}
	}
}

// BenchmarkMerge measures the pooled level-by-level merge; with the
// cursors and staging levels pooled, steady-state allocations are only the
// output trie's level arrays (benchmark/'s trie.merge_ns_per_tuple probe
// measures the same kernel).
func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	blocks := randBlocks(rng, 8, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(blocks)
	}
}
