// Package sampling implements the paper's distributed sampling cardinality
// estimator (§IV). The estimate of |T| decomposes over the first attribute
// A of the join order: |T| = |val(A)| · E[|T_{A=a}|] for a uniform over
// val(A), where val(A) is the intersection of the A-projections of every
// relation containing A. Each sampled a is evaluated with a constrained
// Leapfrog (first attribute fixed), and the Chernoff–Hoeffding bound gives
// the (p, δ) guarantee of Lemma 2.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"adj/internal/leapfrog"
	"adj/internal/relation"
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
	// Cancel, when non-nil, is polled between samples; returning true stops
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
	// Seconds is the measured sampling time (feeds β, §III-B).
	Seconds float64
	// Samples is the number of samples actually taken.
	Samples int
}

// ExtensionsPerSecond returns the measured β: extension ops per second of
// sampling time. Returns 0 when nothing was measured.
func (e Estimate) ExtensionsPerSecond() float64 {
	if e.Seconds <= 0 || e.WorkOps == 0 {
		return 0
	}
	return float64(e.WorkOps) / e.Seconds
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

// EstimateCardinality runs the sequential sampler over bound relations for
// a given attribute order.
func EstimateCardinality(rels []*relation.Relation, order []string, cfg Config) (Estimate, error) {
	if len(order) == 0 {
		return Estimate{}, fmt.Errorf("sampling: empty order")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 1000
	}
	t0 := time.Now()
	vals := ValA(rels, order[0])
	est := Estimate{ValA: len(vals), LevelCounts: make([]float64, len(order)), LevelOps: make([]int64, len(order))}
	if len(vals) == 0 {
		est.Seconds = time.Since(t0).Seconds()
		return est, nil
	}
	tries := leapfrog.BuildTries(rels, order)
	ext, err := leapfrog.NewExtender(tries, order)
	if err != nil {
		return Estimate{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	samples := make([]relation.Value, cfg.Samples)
	for i := range samples {
		samples[i] = vals[rng.Intn(len(vals))]
	}
	acc := runSamples(ext, samples, len(order), cfg.PerSampleBudget, cfg.MaxDepth, cfg.Cancel)
	est.absorb(acc, len(vals), cfg.Samples)
	est.Seconds = time.Since(t0).Seconds()
	return est, nil
}

// Accum is the raw per-level tally of a batch of samples; the distributed
// sampler sums Accums across workers before scaling.
type Accum struct {
	LevelSums []int64
	WorkOps   int64
	Samples   int
}

// Add merges another accumulator.
func (a *Accum) Add(b Accum) {
	if a.LevelSums == nil {
		a.LevelSums = make([]int64, len(b.LevelSums))
	}
	for i := range b.LevelSums {
		a.LevelSums[i] += b.LevelSums[i]
	}
	a.WorkOps += b.WorkOps
	a.Samples += b.Samples
}

// RunSamples evaluates constrained counts for each sampled first-attribute
// value and tallies per-level binding counts.
func RunSamples(ext *leapfrog.Extender, samples []relation.Value, n int, budget int64) Accum {
	return RunSamplesDepth(ext, samples, n, budget, 0)
}

// RunSamplesDepth is RunSamples with a depth bound (0 = full depth).
func RunSamplesDepth(ext *leapfrog.Extender, samples []relation.Value, n int, budget int64, maxDepth int) Accum {
	return runSamples(ext, samples, n, budget, maxDepth, nil)
}

func runSamples(ext *leapfrog.Extender, samples []relation.Value, n int, budget int64, maxDepth int, cancel func() bool) Accum {
	acc := Accum{LevelSums: make([]int64, n), Samples: len(samples)}
	depth := n
	if maxDepth > 0 && maxDepth < n {
		depth = maxDepth
	}
	for _, a := range samples {
		if cancel != nil && cancel() {
			break
		}
		levels, ops := countConstrained(ext, a, n, budget, depth)
		for i, c := range levels {
			acc.LevelSums[i] += c
		}
		acc.WorkOps += ops
	}
	return acc
}

// absorb scales a raw accumulator into the estimate: |T_i| ≈ |val(A)| ×
// mean per-sample count at level i.
func (e *Estimate) absorb(acc Accum, valA, k int) {
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
}

// countConstrained counts partial bindings per level with the first
// attribute fixed to a, descending at most maxDepth levels. Leaf levels
// count through the extender's streaming drain, so no per-leaf value list
// is materialized (or copied) while sampling — the count-only form of the
// batched result pipeline.
func countConstrained(ext *leapfrog.Extender, a relation.Value, n int, budget int64, maxDepth int) ([]int64, int64) {
	levels := make([]int64, n)
	binding := make([]relation.Value, n)
	binding[0] = a
	levels[0] = 1
	var work int64
	var rec func(d int) bool
	rec = func(d int) bool {
		if d >= maxDepth {
			return true
		}
		if d == n-1 {
			limit := int64(-1)
			if budget > 0 {
				// Upper bound before the drain's own seek work is known;
				// clamped below so the tally matches the legacy per-value
				// accounting (which debited the seek work first).
				limit = budget - work + 1
			}
			cnt, w := ext.DrainLeaf(binding, d, limit, nil)
			work += w
			if budget > 0 && cnt > 0 {
				if rem := budget - work + 1; rem < cnt {
					// Legacy semantics: the seek work counts against the
					// budget before values do, and the value that trips
					// the budget is still tallied — so at least one value
					// counts whenever the leaf is nonempty.
					if rem < 1 {
						rem = 1
					}
					cnt = rem
				}
			}
			levels[d] += cnt
			work += cnt
			return budget <= 0 || work <= budget
		}
		vals, w := ext.Extend(binding, d)
		work += w
		for _, v := range vals {
			binding[d] = v
			levels[d]++
			work++
			if budget > 0 && work > budget {
				return false
			}
			if !rec(d + 1) {
				return false
			}
		}
		return true
	}
	if n > 1 {
		rec(1)
	}
	return levels, work
}
