package adj

import (
	"sync"

	"adj/internal/engine"
)

// planCacheEntries bounds a plan cache. A plan holds its lowered program
// and its cubes' row counts, no relation, so an entry is a few KB.
const planCacheEntries = 256

// PlanCacheStats snapshots a plan cache: lookups that adopted a cached
// plan, lookups that had to plan, and the plans resident.
type PlanCacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// planCache holds plans by planning key (Session.planKeyLocked): the
// engine, the query shape, every bound relation's content signature and
// the planning options. A plan depends on nothing else, so any session
// whose key matches may execute it as-is. It lives beside the trie store
// and is owned by the store's owner — a Server's is shared by its
// sessions, a standalone session has its own — and there is none when the
// store is disabled: keys then hold per-session registration epochs,
// which two sessions can share for different content. The nil cache
// holds nothing and counts nothing.
type planCache struct {
	mu           sync.Mutex
	plans        map[uint64]*cachedPlan
	tick         uint64 // use clock: the entry with the smallest used goes first
	hits, misses uint64
}

type cachedPlan struct {
	plan *engine.PreparedPlan
	used uint64
}

func newPlanCache() *planCache {
	return &planCache{plans: make(map[uint64]*cachedPlan)}
}

// get returns the plan cached under key and counts the lookup.
func (c *planCache) get(key uint64) (*engine.PreparedPlan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.plans[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.tick++
	e.used = c.tick
	return e.plan, true
}

// put caches plan under key and returns the plan the cache now holds for
// it. Of two misses on one key that both planned, the first insert is
// kept and the second caller adopts it; both planned the same inputs. At
// the bound the least recently used plan is evicted.
func (c *planCache) put(key uint64, plan *engine.PreparedPlan) *engine.PreparedPlan {
	if c == nil {
		return plan
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e, ok := c.plans[key]; ok {
		e.used = c.tick
		return e.plan
	}
	if len(c.plans) >= planCacheEntries {
		var lruKey uint64
		var lru *cachedPlan
		for k, e := range c.plans {
			if lru == nil || e.used < lru.used {
				lruKey, lru = k, e
			}
		}
		delete(c.plans, lruKey)
	}
	c.plans[key] = &cachedPlan{plan: plan, used: c.tick}
	return plan
}

// stats snapshots the counters.
func (c *planCache) stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.plans)}
}
