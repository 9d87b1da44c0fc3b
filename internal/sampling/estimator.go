// Package sampling implements the paper's sampling cardinality estimator
// (§IV). The estimate of |T| decomposes over the first attribute A of the
// join order: |T| = |val(A)| · E[|T_{A=a}|] for a uniform over val(A),
// where val(A) is the intersection of the A-projections of every relation
// containing A. Each sampled a is evaluated with a constrained Leapfrog
// (first attribute fixed), and the Chernoff–Hoeffding bound gives the
// (p, δ) guarantee of Lemma 2. The planner runs it once, on the
// coordinator's cores over the whole database (Index.Estimate), rather
// than as the paper's distributed pass over a reduced database: the
// samples are split across cores instead of servers.
package sampling

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adj/internal/leapfrog"
	"adj/internal/relation"
	"adj/internal/trie"
)

// Config tunes an estimation run.
type Config struct {
	// Samples is k, the number of sampled val(A) values (with replacement).
	Samples int
	// Seed makes runs deterministic.
	Seed int64
	// PerSampleBudget caps extension work per sample (0 = unlimited); a
	// truncated sample contributes its partial counts, biasing low — the
	// harness only uses budgets as an emergency brake.
	PerSampleBudget int64
	// MaxDepth, when > 0, stops descending below that many attributes: the
	// optimizer uses it to estimate partial-join sizes |T_S| without paying
	// for the full subtree under each sample.
	MaxDepth int
	// Cancel, when non-nil, is polled between samples by every shard (so it
	// must be safe to call from several goroutines); returning true stops
	// the run early with the partial tallies (the caller is abandoning the
	// plan anyway, so a biased estimate is fine). Threads a context's
	// cancellation through planning.
	Cancel func() bool
}

// Estimate is the result of a sampling run.
type Estimate struct {
	// Cardinality is the estimated |T|.
	Cardinality float64
	// LevelCounts[i] estimates |T_{i+1}|: partial bindings of the first i+1
	// attributes of the order (the quantities costE needs, §III-B).
	LevelCounts []float64
	// ValA is |val(A)| for the first attribute.
	ValA int
	// WorkOps counts extension operations performed while sampling.
	WorkOps int64
	// LevelOps[i] is the number of bindings visited at level i while
	// sampling (raw, unscaled).
	LevelOps []int64
	// Seconds is the wall time of the whole estimate: index lookups or
	// builds, val(A), drawing and evaluating the samples.
	Seconds float64
	// Samples is the number of samples actually taken.
	Samples int
	// Truncated reports that some sample's count was cut short — it spent
	// PerSampleBudget, or Cancel stopped the run — so the tallies are lower
	// bounds. An untruncated run's LevelCounts[i] is exactly what a run to
	// depth i+1 gives, with the same seed and sample count, over any order
	// that begins with the same i+1 attributes.
	Truncated bool
}

// SampleSize returns the k of Lemma 2: with k = ⌈0.5·p⁻²·ln(2/δ)⌉ samples,
// the mean deviates from µ by more than p·b with probability < δ.
func SampleSize(p, delta float64) int {
	if p <= 0 || delta <= 0 || delta >= 1 {
		return 1
	}
	return int(math.Ceil(0.5 * math.Pow(p, -2) * math.Log(2/delta)))
}

// ValA computes val(A) = ∩_{R: A ∈ attrs(R)} Π_A R over the bound
// relations.
func ValA(rels []*relation.Relation, attr string) []relation.Value {
	var lists [][]relation.Value
	for _, r := range rels {
		if !r.HasAttr(attr) {
			continue
		}
		lists = append(lists, r.Distinct(attr))
	}
	if len(lists) == 0 {
		return nil
	}
	return relation.IntersectAllSorted(lists)
}

// Index is the sampling context of one planning pass: it memoizes the tries
// the pass's estimates need, so the many estimates an optimizer asks for
// (one per attribute subset, one per bag) build each distinct trie once.
//
// Tries are keyed by content identity and direction, never by name: the
// identity of a trie is the sequence of columns (backing array and length)
// its levels read, in level order. The seven atoms BindGraph binds for Q5
// are renamed views of one edge list, so a whole pass over them holds two
// tries — (src,dst) and (dst,src) — while two relations that merely share a
// name share nothing. The index pins the columns it has seen, which keeps
// their addresses from being reused while it lives; relations must not be
// mutated during the pass. An Index is owned by one planning pass (an
// optimizer.Optimizer), whose estimates may run concurrently: the memo sits
// under a lock, so the first estimate to need a trie builds it while any
// other that needs it waits, and a built trie is read-only.
type Index struct {
	mu     sync.Mutex
	cols   map[colID]uint32      // column → dense number, in order of first sight
	tries  map[string]*trie.Trie // by the level columns' numbers
	keyBuf []byte
}

// colID identifies a column by its backing array and length.
type colID struct {
	first *relation.Value
	n     int
}

// NewIndex returns an empty planning index; tries are built on first use.
func NewIndex() *Index {
	return &Index{cols: make(map[colID]uint32), tries: make(map[string]*trie.Trie)}
}

// TriesBuilt returns how many distinct tries the index has built.
func (ix *Index) TriesBuilt() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.tries)
}

// triesFor returns the tries leapfrog.BuildTries(rels, order) would build,
// each a view (own attribute names, shared levels) of a memoized trie.
func (ix *Index) triesFor(rels []*relation.Relation, order []string) []*trie.Trie {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]*trie.Trie, len(rels))
	for i, r := range rels {
		attrs := trie.AttrsInOrder(r.Attrs, order)
		key := ix.keyBuf[:0]
		for _, a := range attrs {
			col := r.Column(r.AttrIndex(a))
			id := colID{n: len(col)}
			if len(col) > 0 {
				id.first = &col[0]
			}
			num, ok := ix.cols[id]
			if !ok {
				num = uint32(len(ix.cols))
				ix.cols[id] = num
			}
			key = binary.LittleEndian.AppendUint32(key, num)
		}
		ix.keyBuf = key
		t, ok := ix.tries[string(key)]
		if !ok {
			t = trie.Build(r, attrs)
			ix.tries[string(key)] = t
		}
		view := *t
		view.Attrs = attrs
		out[i] = &view
	}
	return out
}

// valA is ValA read off the tries: the first attribute of the order is the
// first level of every trie that contains it, and a trie's first level is
// that column's sorted distinct values.
func valA(tries []*trie.Trie, attr string) []relation.Value {
	var lists [][]relation.Value
	for _, t := range tries {
		if len(t.Attrs) > 0 && t.Attrs[0] == attr {
			lists = append(lists, t.Levels[0].Vals)
		}
	}
	return relation.IntersectAllSorted(lists)
}

// EstimateCardinality runs the sampler over bound relations for a given
// attribute order: the one-estimate form of Index.Estimate.
func EstimateCardinality(rels []*relation.Relation, order []string, cfg Config) (Estimate, error) {
	return NewIndex().Estimate(rels, order, cfg)
}

// Estimate runs the sampler over bound relations for a given attribute
// order, taking tries from the index. The estimate is a function of the
// relations' content, the order and cfg alone: it does not depend on what
// the index already holds, on how many cores evaluate the samples, or on
// which other estimates run beside it. Safe for concurrent use.
func (ix *Index) Estimate(rels []*relation.Relation, order []string, cfg Config) (Estimate, error) {
	if len(order) == 0 {
		return Estimate{}, fmt.Errorf("sampling: empty order")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 1000
	}
	t0 := time.Now()
	tries := ix.triesFor(rels, order)
	vals := valA(tries, order[0])
	est := Estimate{ValA: len(vals), LevelCounts: make([]float64, len(order)), LevelOps: make([]int64, len(order))}
	if len(vals) == 0 {
		est.Seconds = time.Since(t0).Seconds()
		return est, nil
	}
	if len(order) == 1 || cfg.MaxDepth == 1 {
		// Every sample binds level 0 once and descends no further, so the
		// tallies are known without drawing a sample: |val(A)| and k
		// bindings visited, no extension work.
		est.absorb(accum{LevelSums: []int64{int64(cfg.Samples)}, Samples: cfg.Samples}, len(vals), cfg.Samples)
		est.Seconds = time.Since(t0).Seconds()
		return est, nil
	}
	acc, err := countSamples(tries, order, drawSamples(vals, cfg), cfg)
	if err != nil {
		return Estimate{}, err
	}
	est.absorb(acc, len(vals), cfg.Samples)
	est.Seconds = time.Since(t0).Seconds()
	return est, nil
}

// drawSamples draws cfg.Samples values of val(A) uniformly with
// replacement, seeded by cfg.Seed.
func drawSamples(vals []relation.Value, cfg Config) []relation.Value {
	rng := rand.New(rand.NewSource(cfg.Seed))
	samples := make([]relation.Value, cfg.Samples)
	for i := range samples {
		samples[i] = vals[rng.Intn(len(vals))]
	}
	return samples
}

// accum is the raw per-level tally of a batch of samples; countSamples sums
// its shards' accums before absorb scales them.
type accum struct {
	LevelSums []int64
	WorkOps   int64
	Samples   int
	// Truncated: some sample stopped at its budget, or Cancel fired.
	Truncated bool
}

// add merges another accumulator.
func (a *accum) add(b accum) {
	if a.LevelSums == nil {
		a.LevelSums = make([]int64, len(b.LevelSums))
	}
	for i := range b.LevelSums {
		a.LevelSums[i] += b.LevelSums[i]
	}
	a.WorkOps += b.WorkOps
	a.Samples += b.Samples
	a.Truncated = a.Truncated || b.Truncated
}

// chunkSamples is how many consecutive samples a shard claims at a time, and
// so the fewest samples worth a goroutine of their own.
const chunkSamples = 32

// shardsFor returns how many shards a local estimate spreads its samples
// over: one per core, while every shard can claim a whole chunk.
func shardsFor(samples int) int {
	return max(1, min(runtime.GOMAXPROCS(0), samples/chunkSamples))
}

// countSamples evaluates the constrained count of every sample and tallies
// per-level binding counts, honouring cfg's PerSampleBudget, MaxDepth and
// Cancel. Up to shardsFor(len(samples)) goroutines, each with its own
// Extender, claim the samples a chunk at a time; the caller's goroutine is
// one of them, so it waits for a helper only while that helper is inside a
// chunk — a helper the scheduler never gets to costs nothing, which keeps an
// estimate's wall time steady when the machine has fewer free cores than
// GOMAXPROCS. A sample's tally does not depend on who evaluates it and the
// tallies are integers, so the sum is the same for any shard count and any
// claim order.
func countSamples(tries []*trie.Trie, order []string, samples []relation.Value, cfg Config) (accum, error) {
	chunks := (len(samples) + chunkSamples - 1) / chunkSamples
	counters := make([]*counter, shardsFor(len(samples)))
	for i := range counters {
		ext, err := leapfrog.NewExtender(tries, order)
		if err != nil {
			return accum{}, err
		}
		counters[i] = newCounter(ext, len(order), cfg)
	}
	var next atomic.Int64
	claim := func(c *counter) {
		for {
			i := int(next.Add(1)) - 1
			if i >= chunks || !c.run(samples[i*chunkSamples:min((i+1)*chunkSamples, len(samples))]) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for _, c := range counters[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim(c)
		}()
	}
	claim(counters[0])
	wg.Wait()
	var total accum
	for _, c := range counters {
		total.add(c.acc)
	}
	return total, nil
}

// counter evaluates one shard's samples. Its Extender, binding and tallies
// are its own, so evaluating a sample allocates nothing.
type counter struct {
	ext     *leapfrog.Extender
	n       int // attributes in the order
	depth   int // levels to descend (n, or cfg.MaxDepth)
	budget  int64
	cancel  func() bool
	binding []relation.Value
	acc     accum
	work    int64 // extension work of the sample being evaluated
}

func newCounter(ext *leapfrog.Extender, n int, cfg Config) *counter {
	depth := n
	if cfg.MaxDepth > 0 && cfg.MaxDepth < n {
		depth = cfg.MaxDepth
	}
	return &counter{
		ext: ext, n: n, depth: depth, budget: cfg.PerSampleBudget, cancel: cfg.Cancel,
		binding: make([]relation.Value, n),
		acc:     accum{LevelSums: make([]int64, n)},
	}
}

// run tallies every sample of the chunk; it reports false, having stopped
// early, once cancel fires.
func (c *counter) run(samples []relation.Value) bool {
	done := true
	for _, a := range samples {
		if c.cancel != nil && c.cancel() {
			done = false
			c.acc.Truncated = true
			break
		}
		c.binding[0] = a
		c.acc.LevelSums[0]++
		c.work = 0
		if c.n > 1 && !c.descend(1) {
			c.acc.Truncated = true
		}
		c.acc.WorkOps += c.work
	}
	c.acc.Samples += len(samples)
	return done
}

// absorb scales a raw accumulator into the estimate: |T_i| ≈ |val(A)| ×
// mean per-sample count at level i.
func (e *Estimate) absorb(acc accum, valA, k int) {
	n := float64(valA)
	kk := float64(k)
	for i := range acc.LevelSums {
		e.LevelCounts[i] = n * float64(acc.LevelSums[i]) / kk
		e.LevelOps[i] = acc.LevelSums[i]
	}
	e.LevelCounts[0] = n // every sampled value binds level 0 exactly once
	e.Cardinality = e.LevelCounts[len(e.LevelCounts)-1]
	e.WorkOps = acc.WorkOps
	e.Samples = k
	e.Truncated = acc.Truncated
}

// descend counts the partial bindings below the current binding of levels
// < d, down to the counter's depth. Leaf levels count through the
// extender's streaming drain, so no per-leaf value list is materialized (or
// copied) while sampling — the count-only form of the batched result
// pipeline. It reports false once the sample's work budget is spent.
func (c *counter) descend(d int) bool {
	if d >= c.depth {
		return true
	}
	levels := c.acc.LevelSums
	if d == c.n-1 {
		limit := int64(-1)
		if c.budget > 0 {
			// Upper bound before the drain's own seek work is known;
			// clamped below so the tally matches the legacy per-value
			// accounting (which debited the seek work first).
			limit = c.budget - c.work + 1
		}
		cnt, w := c.ext.DrainLeaf(c.binding, d, limit, nil)
		c.work += w
		if c.budget > 0 && cnt > 0 {
			if rem := c.budget - c.work + 1; rem < cnt {
				// Legacy semantics: the seek work counts against the
				// budget before values do, and the value that trips
				// the budget is still tallied — so at least one value
				// counts whenever the leaf is nonempty.
				cnt = max(rem, 1)
			}
		}
		levels[d] += cnt
		c.work += cnt
		return c.budget <= 0 || c.work <= c.budget
	}
	vals, w := c.ext.Extend(c.binding, d)
	c.work += w
	for _, v := range vals {
		c.binding[d] = v
		levels[d]++
		c.work++
		if c.budget > 0 && c.work > c.budget {
			return false
		}
		if !c.descend(d + 1) {
			return false
		}
	}
	return true
}
