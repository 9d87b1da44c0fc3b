package blockcache

import (
	"math/rand"
	"sync"
	"testing"

	"adj/internal/relation"
	"adj/internal/trie"
)

func mkRel(name string, rows [][]relation.Value) *relation.Relation {
	return relation.FromTuples(name, []string{"a", "b"}, rows)
}

func trieRows(t *trie.Trie) string {
	if t == nil {
		return "<nil>"
	}
	return t.ToRelation("x").String()
}

// A block deposited as the tuples every sender shipped (duplicates
// included) must build one trie of its distinct tuples, and every
// subsequent request must return the same shared instance.
func TestBlockTrieBuildOnce(t *testing.T) {
	r := New()
	k := Key{Rel: "R", Sig: 3}
	attrs := []string{"a", "b"}
	r.DepositTuples(k, attrs, mkRel("R", [][]relation.Value{{1, 2}, {5, 6}, {1, 2}, {3, 4}}))
	if r.Len() != 1 {
		t.Fatalf("len=%d after one deposit", r.Len())
	}
	first := r.Trie("R")
	if first == nil || first.NumTuples != 3 {
		t.Fatalf("block trie = %s, want 3 distinct tuples", trieRows(first))
	}
	again := r.Trie("R")
	if again != first {
		t.Fatal("second request built a new trie instead of sharing")
	}
	st := r.Stats()
	if st.Builds != 1 || st.Hits != 1 || st.Blocks != 1 {
		t.Fatalf("stats = %+v, want builds=1 hits=1 blocks=1", st)
	}
}

// Each relation's trie is its one block's trie, built once and shared by
// every request; a relation with no block deposited has no trie.
func TestRelationTrieIsItsBlockTrie(t *testing.T) {
	r := New()
	attrs := []string{"a", "b"}
	r.DepositTuples(Key{Rel: "R", Sig: 0}, attrs, mkRel("R", [][]relation.Value{{1, 1}}))
	r.DepositTuples(Key{Rel: "S", Sig: 1}, attrs, mkRel("S", [][]relation.Value{{2, 2}, {3, 3}}))
	tR, tS := r.Trie("R"), r.Trie("S")
	if tR.NumTuples != 1 || tS.NumTuples != 2 {
		t.Fatalf("R = %s, S = %s: want R's and S's blocks", trieRows(tR), trieRows(tS))
	}
	if r.Trie("R") != tR {
		t.Fatal("a repeat request must share the built trie")
	}
	if tr := r.Trie("T"); tr != nil {
		t.Fatalf("relation without a block has trie %s", trieRows(tr))
	}
	if st := r.Stats(); st.Blocks != 2 || st.Builds != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want blocks=2 builds=2 hits=1", st)
	}
	bbs := r.BuiltBlocks()
	if len(bbs) != 2 || bbs[0].Key != (Key{Rel: "R", Sig: 0}) || bbs[1].Key != (Key{Rel: "S", Sig: 1}) {
		t.Fatalf("BuiltBlocks = %+v, want R's block 0 then S's block 1", bbs)
	}
}

// Trie parts (Merge shuffle) from several senders merge once into the
// deduplicated union.
func TestTriePartsMerge(t *testing.T) {
	r := New()
	k := Key{Rel: "S", Sig: 7}
	attrs := []string{"a", "b"}
	r.DepositTrie(k, attrs, trie.Build(mkRel("S", [][]relation.Value{{1, 2}, {3, 4}}), attrs))
	r.DepositTrie(k, attrs, trie.Build(mkRel("S", [][]relation.Value{{3, 4}, {5, 6}}), attrs))
	bt := r.Trie("S")
	if bt.NumTuples != 3 {
		t.Fatalf("merged block = %s, want 3 tuples", trieRows(bt))
	}
}

// Single-flight: many goroutines racing on several relations' tries must
// observe exactly one build per relation and share its instance (run with
// -race in CI).
func TestSingleFlightUnderRace(t *testing.T) {
	r := New()
	attrs := []string{"a", "b"}
	rels := []string{"R", "S", "T", "U", "V", "W", "X", "Y"}
	rng := rand.New(rand.NewSource(7))
	for i, rel := range rels {
		rows := make([][]relation.Value, 50)
		for j := range rows {
			rows[j] = []relation.Value{rng.Int63n(100), rng.Int63n(100)}
		}
		r.DepositTuples(Key{Rel: rel, Sig: i}, attrs, mkRel(rel, rows))
	}
	const goroutines = 8
	var wg sync.WaitGroup
	tries := make([][]*trie.Trie, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range rels {
				// Each goroutine walks the relations from its own start.
				tries[g] = append(tries[g], r.Trie(rels[(g+i)%len(rels)]))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range rels {
			if got, want := tries[g][(i-g+len(rels))%len(rels)], tries[0][i]; got != want || got == nil {
				t.Fatalf("goroutine %d got a different trie instance for %s", g, rels[i])
			}
		}
	}
	st := r.Stats()
	if st.Builds != int64(len(rels)) || st.Hits != int64((goroutines-1)*len(rels)) {
		t.Fatalf("stats = %+v, want exactly %d builds (one per relation) and %d hits", st, len(rels), (goroutines-1)*len(rels))
	}
}

// An empty registry answers gracefully.
func TestEmptyRegistry(t *testing.T) {
	r := New()
	if tr := r.Trie("X"); tr != nil {
		t.Fatal("unknown relation should return nil")
	}
	if len(r.BuiltBlocks()) != 0 || r.Len() != 0 {
		t.Fatal("empty registry reports contents")
	}
}
