package blockcache

import (
	"testing"

	"adj/internal/relation"
	"adj/internal/trie"
)

func testTrie(t *testing.T, name string, n int) *trie.Trie {
	t.Helper()
	r := relation.New(name, "a", "b")
	for i := 0; i < n; i++ {
		r.Append(relation.Value(i), relation.Value(i*7%n))
	}
	return trie.Build(r, []string{"a", "b"})
}

func TestStorePutSnapshot(t *testing.T) {
	s := NewStore(0)
	tr := testTrie(t, "R", 16)
	mid := ManifestID{Content: 1, Layout: 2}
	s.Put(BlockID{1, 2, 0}, tr)
	s.Put(BlockID{1, 2, 3}, tr)
	if _, ok := s.Snapshot(mid); ok {
		t.Fatal("snapshot without manifest must miss")
	}
	s.PutManifest(mid, []int{0, 3})
	blocks, ok := s.Snapshot(mid)
	if !ok || len(blocks) != 2 || blocks[0] != tr || blocks[3] != tr {
		t.Fatalf("snapshot = %v ok=%v", blocks, ok)
	}
	// Missing block breaks the whole snapshot.
	s.PutManifest(ManifestID{Content: 9, Layout: 9}, []int{1})
	if _, ok := s.Snapshot(ManifestID{Content: 9, Layout: 9}); ok {
		t.Fatal("snapshot with evicted block must miss")
	}
	st := s.Stats()
	if st.Blocks != 2 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreEmptyManifest(t *testing.T) {
	s := NewStore(0)
	mid := ManifestID{Content: 5, Layout: 5}
	s.PutManifest(mid, nil)
	blocks, ok := s.Snapshot(mid)
	if !ok || len(blocks) != 0 {
		t.Fatalf("empty manifest snapshot = %v ok=%v", blocks, ok)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	tr := testTrie(t, "R", 32)
	per := tr.MemBytes()
	s := NewStore(3 * per)
	for sig := 0; sig < 5; sig++ {
		s.Put(BlockID{1, 1, sig}, tr)
	}
	st := s.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d over budget %d", st.Bytes, st.Budget)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	// The oldest entries (sigs 0, 1) must be gone; the newest must survive.
	if _, ok := s.entries[BlockID{1, 1, 0}]; ok {
		t.Fatal("sig 0 should have been evicted")
	}
	if _, ok := s.entries[BlockID{1, 1, 4}]; !ok {
		t.Fatal("sig 4 should be resident")
	}
	// Touching sig 2 via a manifest snapshot protects it from the next Put.
	s.PutManifest(ManifestID{1, 1}, []int{2})
	if _, ok := s.Snapshot(ManifestID{1, 1}); !ok {
		t.Fatal("sig 2 should be resident")
	}
	s.Put(BlockID{1, 1, 5}, tr)
	if _, ok := s.entries[BlockID{1, 1, 2}]; !ok {
		t.Fatal("recently-used sig 2 evicted before older entries")
	}
}

func TestStoreRejectsOversizedBlock(t *testing.T) {
	small := testTrie(t, "R", 4)
	s := NewStore(small.MemBytes())
	big := testTrie(t, "R", 4096)
	s.Put(BlockID{1, 1, 0}, big)
	if s.Len() != 0 {
		t.Fatal("oversized block admitted")
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("rejection must count as eviction")
	}
	s.Put(BlockID{1, 1, 1}, small)
	if s.Len() != 1 {
		t.Fatal("small block rejected")
	}
}

func TestRegistryAdoptedTriesCountAsHits(t *testing.T) {
	r := New()
	tr := testTrie(t, "R", 8)
	k := Key{Rel: "R", Sig: 0}
	r.DepositBuilt(k, []string{"a", "b"}, tr)
	if got := r.Trie("R"); got != tr {
		t.Fatal("adopted trie not returned")
	}
	r.Trie("R")
	st := r.Stats()
	if st.Builds != 0 {
		t.Fatalf("adopted block counted %d builds", st.Builds)
	}
	if st.Hits != 2 {
		t.Fatalf("adopted block hits = %d, want 2 (every request)", st.Hits)
	}
	bbs := r.BuiltBlocks()
	if len(bbs) != 1 || !bbs[0].Adopted || bbs[0].Trie != tr {
		t.Fatalf("BuiltBlocks = %+v", bbs)
	}
}
