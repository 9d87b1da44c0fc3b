package blockcache

import (
	"fmt"
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

// A block deposited as tuple parts from several senders must build one
// trie equal to the trie over the concatenation, and every subsequent
// request must return the same shared instance.
func TestBlockTrieBuildOnce(t *testing.T) {
	r := New()
	k := Key{Rel: "R", Sig: 3}
	attrs := []string{"a", "b"}
	p1 := mkRel("R", [][]relation.Value{{1, 2}, {5, 6}})
	p2 := mkRel("R", [][]relation.Value{{1, 2}, {3, 4}})
	r.DepositTuples(k, attrs, p1)
	r.DepositTuples(k, attrs, p2)
	if r.Len() != 1 {
		t.Fatalf("len=%d after two deposits of one key", r.Len())
	}
	first := r.BlockTrie(k)
	if first == nil || first.NumTuples != 3 {
		t.Fatalf("block trie = %s, want 3 distinct tuples", trieRows(first))
	}
	again := r.BlockTrie(k)
	if again != first {
		t.Fatal("second request built a new trie instead of sharing")
	}
	st := r.Stats()
	if st.Builds != 1 || st.Hits != 1 || st.Blocks != 1 {
		t.Fatalf("stats = %+v, want builds=1 hits=1 blocks=1", st)
	}
}

// Two cubes bound to the same single block must alias the same trie with
// no cube-level merge; a cube holding two blocks merges them lazily.
func TestCubeTrieSharingAndLazyMerge(t *testing.T) {
	r := New()
	attrs := []string{"a", "b"}
	kA := Key{Rel: "R", Sig: 0}
	kB := Key{Rel: "R", Sig: 1}
	r.DepositTuples(kA, attrs, mkRel("R", [][]relation.Value{{1, 1}}))
	r.DepositTuples(kB, attrs, mkRel("R", [][]relation.Value{{2, 2}}))
	r.BindCube(0, "R", kA)
	r.BindCube(2, "R", kA) // shares block A with cube 0
	r.BindCube(4, "R", kA)
	r.BindCube(4, "R", kB) // cube 4 holds both blocks
	r.BindCube(4, "R", kA) // rebinding is a no-op

	t0, ok := r.CubeTrie(0, "R")
	if !ok {
		t.Fatal("cube 0 unbound")
	}
	t2, _ := r.CubeTrie(2, "R")
	if t0 != t2 {
		t.Fatal("single-block cubes must share the block trie instance")
	}
	t4, _ := r.CubeTrie(4, "R")
	if t4.NumTuples != 2 {
		t.Fatalf("cube 4 merged trie = %s, want 2 tuples", trieRows(t4))
	}
	if _, ok := r.CubeTrie(1, "R"); ok {
		t.Fatal("unbound cube reported present")
	}
	st := r.Stats()
	if st.Builds != 2 {
		t.Fatalf("builds = %d, want 2 (one per block, shared by 3 cube bindings)", st.Builds)
	}
	if st.CubeMerges != 1 {
		t.Fatalf("cube merges = %d, want 1 (only the two-block cube merges)", st.CubeMerges)
	}
	if got := r.Cubes(); fmt.Sprint(got) != "[0 2 4]" {
		t.Fatalf("cubes = %v", got)
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
	bt := r.BlockTrie(k)
	if bt.NumTuples != 3 {
		t.Fatalf("merged block = %s, want 3 tuples", trieRows(bt))
	}
}

// Single-flight: many goroutines racing on the same blocks and cubes must
// observe exactly one build per block (run with -race in CI).
func TestSingleFlightUnderRace(t *testing.T) {
	r := New()
	attrs := []string{"a", "b"}
	const blocks = 8
	rng := rand.New(rand.NewSource(7))
	for s := 0; s < blocks; s++ {
		k := Key{Rel: "R", Sig: s}
		rows := make([][]relation.Value, 50)
		for i := range rows {
			rows[i] = []relation.Value{rng.Int63n(100), rng.Int63n(100)}
		}
		r.DepositTuples(k, attrs, mkRel("R", rows))
		for cube := 0; cube < 16; cube++ {
			if cube%blocks == s || (cube+1)%blocks == s {
				r.BindCube(cube, "R", k)
			}
		}
	}
	var wg sync.WaitGroup
	tries := make([][]*trie.Trie, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for cube := 0; cube < 16; cube++ {
				tr, ok := r.CubeTrie(cube, "R")
				if ok {
					tries[g] = append(tries[g], tr)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		if len(tries[g]) != len(tries[0]) {
			t.Fatalf("goroutine %d saw %d cube tries, goroutine 0 saw %d", g, len(tries[g]), len(tries[0]))
		}
		for i := range tries[g] {
			if tries[g][i] != tries[0][i] {
				t.Fatalf("goroutine %d got a different trie instance for cube %d", g, i)
			}
		}
	}
	st := r.Stats()
	if st.Builds != blocks {
		t.Fatalf("builds = %d, want exactly %d (one per block)", st.Builds, blocks)
	}
}

// An empty registry answers gracefully.
func TestEmptyRegistry(t *testing.T) {
	r := New()
	if tr := r.BlockTrie(Key{Rel: "X", Sig: 0}); tr != nil {
		t.Fatal("unknown block should return nil")
	}
	if _, ok := r.CubeTrie(0, "X"); ok {
		t.Fatal("unknown cube should report absent")
	}
	if len(r.Cubes()) != 0 || r.Len() != 0 {
		t.Fatal("empty registry reports contents")
	}
}
