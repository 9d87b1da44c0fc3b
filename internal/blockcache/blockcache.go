// Package blockcache is the per-worker block-trie registry the HCube
// shuffles deliver into (§V of the paper). A worker holds one cube, and a
// cube fixes a coordinate for every attribute, so it holds exactly one block
// of each relation — all of the relation's tuples sharing one hash
// signature. The block arrives in one of three forms: one tuple relation
// that a Push or Pull receiver appended every sender's chunks onto, one
// pre-built trie part per sender from Merge, or a trie adopted from the
// session's store on a warm run. The registry builds its trie exactly
// once, at first use.
//
// Deposits happen during the shuffle's consume phase (one goroutine per
// worker); trie construction happens during the join phase. Entries are
// single-flight, so concurrent requests for one relation's trie wait for one
// build instead of duplicating it.
package blockcache

import (
	"sort"
	"sync"
	"sync/atomic"

	"adj/internal/relation"
	"adj/internal/trie"
)

// Key identifies one block: a relation name plus the block's hash
// signature under the shuffle's share vector. A registry holds at most one
// block per relation.
type Key struct {
	Rel string
	Sig int
}

// Stats is a snapshot of registry activity.
type Stats struct {
	// Blocks counts the relations with a block deposited.
	Blocks int64
	// Builds counts block tries constructed. With every deposited block
	// requested at least once, Builds == Blocks: each trie is built exactly
	// once.
	Builds int64
	// Hits counts block-trie requests answered without a build: a request
	// for a trie adopted from the store, or a repeat request for a block.
	// A join asks for each relation's trie once, so there these are the
	// adopted tries.
	Hits int64
}

// Add accumulates s2 into s (for folding per-worker stats into a report).
func (s *Stats) Add(s2 Stats) {
	s.Blocks += s2.Blocks
	s.Builds += s2.Builds
	s.Hits += s2.Hits
}

// Registry is one worker's block-trie cache, one block per relation.
// Deposit* are called from the (single-goroutine) shuffle consume phase;
// Trie is safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	blocks map[string]*blockEntry // by relation name

	builds atomic.Int64
	hits   atomic.Int64
}

// blockEntry holds one block as it arrived and its lazily-built trie.
type blockEntry struct {
	once  sync.Once
	key   Key
	attrs []string
	// trieParts are pre-built block tries, one per sender (Merge shuffle);
	// tuples is the block's raw tuples (Push/Pull shuffles). Exactly one
	// is set.
	trieParts []*trie.Trie
	tuples    *relation.Relation
	built     *trie.Trie
	// adopted is a pre-built trie installed from the session-resident store
	// (a warm shuffle). The first request counts as a cache hit, not a
	// build — the whole point of cross-query reuse is that no shuffle-side
	// trie construction happens at all.
	adopted *trie.Trie
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{blocks: make(map[string]*blockEntry)}
}

// DepositTrie adds a pre-built block trie part (Merge shuffle). attrs is
// the trie attribute order. Every part of a relation must carry the same
// key and attrs: the first deposit fixes them. The trie is
// retained and must not be mutated afterwards.
func (r *Registry) DepositTrie(k Key, attrs []string, t *trie.Trie) {
	r.mu.Lock()
	e := r.entry(k, attrs)
	e.trieParts = append(e.trieParts, t)
	r.mu.Unlock()
}

// DepositTuples sets the block's raw tuples (Push/Pull shuffles), every
// sender's at once. attrs is the order the block's trie will be built in.
// block is retained and must not be reused afterwards.
func (r *Registry) DepositTuples(k Key, attrs []string, block *relation.Relation) {
	r.mu.Lock()
	r.entry(k, attrs).tuples = block
	r.mu.Unlock()
}

// DepositBuilt adds a block whose trie is already built — the warm-shuffle
// path, where the session store supplies tries published by an earlier
// execution over the same relation content. Requests for the block are
// served without any build (all of them count as cache hits). t is retained
// and must not be mutated.
func (r *Registry) DepositBuilt(k Key, attrs []string, t *trie.Trie) {
	r.mu.Lock()
	e := r.entry(k, attrs)
	e.adopted = t
	r.mu.Unlock()
}

func (r *Registry) entry(k Key, attrs []string) *blockEntry {
	e, ok := r.blocks[k.Rel]
	if !ok {
		e = &blockEntry{key: k, attrs: attrs}
		r.blocks[k.Rel] = e
	}
	return e
}

// Trie returns the trie of relation rel's block, building it exactly once
// (single-flight: concurrent callers wait for the first build). Returns
// nil when no block of rel was deposited.
func (r *Registry) Trie(rel string) *trie.Trie {
	r.mu.Lock()
	e := r.blocks[rel]
	r.mu.Unlock()
	if e == nil {
		return nil
	}
	built := false
	e.once.Do(func() {
		if e.adopted != nil {
			e.built = e.adopted
		} else {
			e.built = e.build()
			built = true
			r.builds.Add(1)
		}
		e.trieParts, e.tuples = nil, nil // dead once built
	})
	if !built {
		r.hits.Add(1)
	}
	return e.built
}

func (e *blockEntry) build() *trie.Trie {
	if len(e.trieParts) > 0 {
		return trie.Merge(e.trieParts)
	}
	return trie.Build(e.tuples, e.attrs)
}

// BuiltBlock is one registry block whose trie exists: the key, the trie
// attribute order it was built in, and the trie itself. Adopted marks
// blocks installed pre-built from the session store (already published —
// republishing them would only churn the store's recency list).
type BuiltBlock struct {
	Key     Key
	Attrs   []string
	Trie    *trie.Trie
	Adopted bool
}

// BuiltBlocks snapshots every deposited block in deterministic key order —
// the publish walk that deposits a cold shuffle's tries into the
// session-resident store after the join phase. Blocks deposited but never
// requested have a nil Trie; publishers treat a relation with any unbuilt
// block as incomplete and skip its manifest.
func (r *Registry) BuiltBlocks() []BuiltBlock {
	r.mu.Lock()
	out := make([]BuiltBlock, 0, len(r.blocks))
	for _, e := range r.blocks {
		out = append(out, BuiltBlock{Key: e.key, Attrs: e.attrs, Trie: e.built, Adopted: e.adopted != nil})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Rel < out[j].Key.Rel })
	return out
}

// Len returns the number of distinct blocks deposited.
func (r *Registry) Len() int {
	r.mu.Lock()
	n := len(r.blocks)
	r.mu.Unlock()
	return n
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	return Stats{
		Blocks: int64(r.Len()),
		Builds: r.builds.Load(),
		Hits:   r.hits.Load(),
	}
}
