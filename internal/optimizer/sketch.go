package optimizer

import (
	"math"

	"adj/internal/relation"
)

// Sketch-style cardinality estimation (System-R independence assumptions):
// the cheap per-attribute-statistics estimator that HCubeJ-style
// communication-first planners use for order selection. §IV argues these
// estimates can be orders of magnitude off on complex joins — which is why
// ADJ samples instead — so this is both the baseline's planner and the
// ablation target for BenchmarkAblationEstimator.

// sketchStats holds per-relation, per-attribute distinct counts.
type sketchStats struct {
	sizes    []float64
	distinct []map[string]float64
}

func newSketchStats(rels []*relation.Relation) *sketchStats {
	st := &sketchStats{
		sizes:    make([]float64, len(rels)),
		distinct: make([]map[string]float64, len(rels)),
	}
	for i, r := range rels {
		st.sizes[i] = float64(r.Len())
		st.distinct[i] = make(map[string]float64, r.Arity())
		for _, a := range r.Attrs {
			st.distinct[i][a] = float64(len(r.Distinct(a)))
		}
	}
	return st
}

// prefixEstimate estimates |T_P| for an attribute prefix under uniformity
// and independence: the product of each relation's restriction size,
// divided per shared attribute by the largest distinct count (the classic
// equi-join selectivity 1/max(d)).
func (st *sketchStats) prefixEstimate(rels []*relation.Relation, prefix []string) float64 {
	in := make(map[string]bool, len(prefix))
	for _, a := range prefix {
		in[a] = true
	}
	est := 1.0
	// cover[a] counts relations contributing attribute a.
	cover := make(map[string]int, len(prefix))
	maxD := make(map[string]float64, len(prefix))
	any := false
	for i, r := range rels {
		var bound []string
		for _, a := range r.Attrs {
			if in[a] {
				bound = append(bound, a)
			}
		}
		if len(bound) == 0 {
			continue
		}
		any = true
		// Restriction size: full size when all attrs bound, otherwise the
		// product of the bound attrs' distinct counts capped by |R|.
		var size float64
		if len(bound) == len(r.Attrs) {
			size = st.sizes[i]
		} else {
			size = 1
			for _, a := range bound {
				size *= st.distinct[i][a]
			}
			if size > st.sizes[i] {
				size = st.sizes[i]
			}
		}
		if size < 1 {
			size = 1
		}
		est *= size
		for _, a := range bound {
			cover[a]++
			if d := st.distinct[i][a]; d > maxD[a] {
				maxD[a] = d
			}
		}
	}
	if !any {
		return 1
	}
	// In prefix order, not map order: float division does not commute in its
	// rounding, and orders that tie must tie the same way on every call.
	for _, a := range prefix {
		for k := 1; k < cover[a]; k++ {
			d := maxD[a]
			if d < 1 {
				d = 1
			}
			est /= d
		}
	}
	if math.IsInf(est, 0) || math.IsNaN(est) {
		return math.MaxFloat64 / 4
	}
	return est
}

// ChooseOrderSketch selects the order minimizing Σ sketch-estimated prefix
// sizes — no sampling, no data walks. This is the order selector of the
// communication-first baseline (Fig. 8's "All-Selected").
func (o *Optimizer) ChooseOrderSketch(orders [][]string) []string {
	st := newSketchStats(o.Rels)
	best := orders[0]
	bestCost := math.Inf(1)
	for _, ord := range orders {
		c := 0.0
		for i := 1; i < len(ord); i++ {
			c += st.prefixEstimate(o.Rels, ord[:i])
		}
		if c < bestCost {
			bestCost = c
			best = ord
		}
	}
	return best
}

// SketchPrefixEstimate exposes the raw estimator for the ablation bench.
func (o *Optimizer) SketchPrefixEstimate(prefix []string) float64 {
	return newSketchStats(o.Rels).prefixEstimate(o.Rels, prefix)
}
