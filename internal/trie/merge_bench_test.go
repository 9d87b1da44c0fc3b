package trie

import (
	"math/rand"
	"slices"
	"testing"

	"adj/internal/dataset"
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
				dec, err := Decode(AppendEncode(nil, parts[p]))
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

// contiguousParts cuts the sorted relation r at cuts (ascending row
// positions, r.Len() last) into contiguous row ranges — the parts the
// senders of a Merge shuffle hold when each worker's fragment is a
// contiguous split of a sorted relation — and builds each part's trie over
// attrs.
func contiguousParts(r *relation.Relation, cuts []int, attrs []string) []*Trie {
	parts := make([]*Trie, len(cuts))
	lo := 0
	for p, hi := range cuts {
		cols := make([][]relation.Value, r.Arity())
		for j, col := range r.Columns() {
			cols[j] = slices.Clone(col[lo:hi])
		}
		parts[p] = Build(relation.FromColumns("P", r.Attrs, cols), attrs)
		lo = hi
	}
	return parts
}

// Parts cut as contiguous row ranges of one sorted relation exercise the
// bulk-copy path: with the sorted column leading the trie, neighbouring
// parts share at most their boundary root key and everything else copies
// in runs at level 0; with the columns permuted, the roots interleave and
// the runs are the range-disjoint child lists below them. Small domains
// make boundary keys and deeper ties common. Either way the merge must be
// Build of the union.
func TestMergeContiguousPartsMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 1500; iter++ {
		arity := 1 + rng.Intn(4)
		nparts := 1 + rng.Intn(8)
		domain := []int{2, 6, 40, 400}[rng.Intn(4)]
		r := randomRel(rng, arity, rng.Intn(600), domain)
		attrs := slices.Clone(r.Attrs)
		order := "identity"
		if rng.Intn(2) == 0 {
			order = "permuted"
			rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		}
		// Random cuts: parts may be empty, and a key straddling a cut is
		// held by both neighbours.
		cuts := make([]int, nparts)
		for p := range cuts {
			cuts[p] = rng.Intn(r.Len() + 1)
		}
		cuts[nparts-1] = r.Len()
		slices.Sort(cuts)
		parts := contiguousParts(r.Sort(), cuts, attrs)
		for p := range parts {
			if rng.Intn(2) == 0 {
				dec, err := Decode(AppendEncode(nil, parts[p]))
				if err != nil {
					t.Fatal(err)
				}
				parts[p] = dec
			}
		}
		if diff := LayoutDiff(Merge(parts), Build(r, attrs)); diff != "" {
			t.Fatalf("iter %d (%s %v, %d parts, domain %d, %d rows): %s", iter, order, attrs, nparts, domain, r.Len(), diff)
		}
	}
}

// BenchmarkMergeDisjoint merges four contiguous quarters of a sorted
// 40 k-edge graph (LJ at scale 0.6, src then dst): "identity" builds the
// tries in the graph's column order, so the parts' roots are disjoint
// ranges; "permuted" builds them dst-first, so the roots interleave and
// the src lists under each root are disjoint.
func BenchmarkMergeDisjoint(b *testing.B) {
	g := dataset.Load("LJ", 0.6)
	n := g.Len()
	for _, bc := range []struct {
		name  string
		attrs []string
	}{{"identity", []string{"src", "dst"}}, {"permuted", []string{"dst", "src"}}} {
		b.Run(bc.name, func(b *testing.B) {
			parts := contiguousParts(g, []int{n / 4, n / 2, 3 * n / 4, n}, bc.attrs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Merge(parts)
			}
		})
	}
}
