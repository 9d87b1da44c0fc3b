package leapfrog

import (
	"slices"

	"adj/internal/trie"
)

// CachedJoin is the CacheTrieJoin-style variant (Kalinsky et al., §VI of
// the paper): Leapfrog with per-level memoization of intersections. The
// intersection computed at depth d depends only on the positions of the
// participating iterators' parent nodes, so those positions form the cache
// key. The cache is bounded; once a level's budget is exhausted new entries
// are not inserted — mirroring the paper's observation that HCubeJ+Cache
// degrades when HCube's memory use starves the cache.
type CachedJoin struct {
	order []string
	// perLevel[d] holds the tries active at depth d.
	perLevel [][]*trie.Trie
	tries    []*trie.Trie
	// relevant[d][i] marks bound positions i < d that level d's
	// intersection depends on (precomputed once; cacheKey is hot).
	relevant [][]bool
	// keyBuf is reused scratch for cache-key encoding.
	keyBuf []byte
	// CacheBudget is the maximum number of cached values per level.
	CacheBudget int
	// Hits and Misses are cache statistics for the ablation bench.
	Hits, Misses int64
}

// NewCachedJoin prepares a cached join over tries built by BuildTries.
// cacheBudget is the per-level cap on cached values (0 disables caching:
// inner levels degenerate to materialized intersections and the leaf
// level to the plain joiner's streaming drain). Once a level's budget is
// exhausted, leaf misses likewise stop materializing value lists and
// drain the intersection directly — the saturated-cache steady state the
// paper's HCubeJ+Cache starvation analysis describes.
func NewCachedJoin(tries []*trie.Trie, order []string, cacheBudget int) *CachedJoin {
	pos := make(map[string]int, len(order))
	for i, a := range order {
		pos[a] = i
	}
	c := &CachedJoin{order: order, tries: tries, CacheBudget: cacheBudget}
	c.perLevel = make([][]*trie.Trie, len(order))
	for _, t := range tries {
		for _, a := range t.Attrs {
			c.perLevel[pos[a]] = append(c.perLevel[pos[a]], t)
		}
	}
	c.relevant = make([][]bool, len(order))
	for d := range c.relevant {
		rel := make([]bool, d)
		for _, t := range c.perLevel[d] {
			for _, a := range t.Attrs {
				if p := pos[a]; p < d {
					rel[p] = true
				}
			}
		}
		c.relevant[d] = rel
	}
	return c
}

// Run executes the cached join; semantics match Join. Leaf results reach
// the sink as runs: materialized (or cached) leaf value lists are handed
// over whole, and the budget-saturated miss path streams through the
// extender's drain — either way no per-tuple callback runs.
func (c *CachedJoin) Run(opt Options) (Stats, error) {
	ext, err := NewExtender(c.tries, c.order)
	if err != nil {
		return Stats{}, err
	}
	n := len(c.order)
	st := Stats{LevelTuples: make([]int64, n)}
	sink := opt.Sink
	caches := make([]map[string][]Value, n)
	cacheSize := make([]int, n)
	for d := range caches {
		caches[d] = make(map[string][]Value)
	}
	binding := make([]Value, n)
	var work int64
	// emitLeafRun delivers a materialized leaf value list as one run under
	// the current binding prefix, truncating at the work budget with the
	// exact per-value semantics of the legacy loop: the value that trips
	// the budget is counted at its level but not emitted as a result.
	emitLeafRun := func(d int, vals []Value) error {
		take := int64(len(vals))
		over := false
		if opt.Budget > 0 && work+take > opt.Budget {
			take = opt.Budget - work
			over = true
		}
		if sink != nil && take > 0 {
			sink.BeginRun(binding[:d])
			deliver(sink, &st, vals[:take])
		}
		st.LevelTuples[d] += take
		st.Results += take
		work += take
		if over {
			st.LevelTuples[d]++
			work++
			return ErrBudget
		}
		return nil
	}
	var steps int
	var rec func(d int) error
	rec = func(d int) error {
		if opt.Cancel != nil {
			if steps%cancelStride == 0 && opt.Cancel() {
				return ErrCanceled
			}
			steps++
		}
		var vals []Value
		// Cache key: the bound values of attributes < d that are relevant to
		// level d's intersection (attributes shared with any relation active
		// at d). Using the full relevant prefix is correct and simpler than
		// node positions.
		key := c.cacheKey(binding, d)
		if cached, ok := caches[d][key]; ok {
			c.Hits++
			vals = cached
		} else {
			c.Misses++
			if d == n-1 && (c.CacheBudget <= 0 || cacheSize[d] >= c.CacheBudget) {
				// Leaf level with caching disabled or the level's budget
				// exhausted: nothing could be inserted, so skip the value
				// list entirely and drain the intersection in one streaming
				// pass (the plain joiner's leaf drain), capped at the
				// remaining work budget.
				limit := int64(-1)
				if opt.Budget > 0 {
					limit = opt.Budget - work + 1
				}
				cnt, _ := ext.DrainLeaf(binding, d, limit, sink)
				st.LevelTuples[d] += cnt
				st.Results += cnt
				work += cnt
				if sink != nil && cnt > 0 {
					st.EmittedRuns++
					st.EmittedValues += cnt
				}
				if opt.Budget > 0 && work > opt.Budget {
					return ErrBudget
				}
				return nil
			}
			vals, _ = ext.Extend(binding, d)
			if c.CacheBudget > 0 && cacheSize[d]+len(vals) <= c.CacheBudget {
				// Extend's result is the extender's scratch; the cache
				// outlives it.
				vals = slices.Clone(vals)
				caches[d][key] = vals
				cacheSize[d] += len(vals)
			}
		}
		if d == n-1 {
			return emitLeafRun(d, vals)
		}
		for _, v := range vals {
			binding[d] = v
			st.LevelTuples[d]++
			work++
			if opt.Budget > 0 && work > opt.Budget {
				return ErrBudget
			}
			if err := rec(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err = rec(0)
	return st, err
}

// cacheKey serializes the bound values relevant to depth d into the
// reusable key buffer (the returned string still copies — it is the map
// key — but no intermediate allocations remain).
func (c *CachedJoin) cacheKey(binding []Value, d int) string {
	if cap(c.keyBuf) < 8*d {
		c.keyBuf = make([]byte, 8*d)
	}
	b := c.keyBuf[:8*d]
	for i := 0; i < d; i++ {
		v := Value(-1 << 62) // neutral marker keeps key width fixed
		if c.relevant[d][i] {
			v = binding[i]
		}
		u := uint64(v)
		o := i * 8
		b[o] = byte(u >> 56)
		b[o+1] = byte(u >> 48)
		b[o+2] = byte(u >> 40)
		b[o+3] = byte(u >> 32)
		b[o+4] = byte(u >> 24)
		b[o+5] = byte(u >> 16)
		b[o+6] = byte(u >> 8)
		b[o+7] = byte(u)
	}
	return string(b)
}
