package experiments

import (
	"fmt"
	"math"

	"adj/internal/dataset"
	"adj/internal/leapfrog"
	"adj/internal/sampling"
)

// Fig10 reproduces Fig. 10: sampling cost and accuracy versus sample count
// for Q4–Q6 on LJ. Accuracy is D = max(est, truth)/min(est, truth) — the
// paper's "max relative difference"; it converges to 1 once the budget
// passes ~10⁴ samples at full scale (~10³ here). Cost is the measured
// sampling time.
func Fig10(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:      "Fig10",
		Title:   "Sampling cost (seconds) and accuracy (D) vs #samples (LJ)",
		Columns: []string{"k=100", "k=1000", "k=10000", "D@100", "D@1000", "D@10000"},
	}
	edges := dataset.Load("LJ", cfg.Scale)
	sampleSizes := []int{100, 1000, 10000}
	for _, qn := range []string{"Q4", "Q5", "Q6"} {
		if err := cfg.err(); err != nil {
			return res, err
		}
		q, rels := bindQ(qn, edges)
		order := q.Attrs()
		exact, err := leapfrog.JoinRelations(rels, order, leapfrog.Options{Budget: cfg.Budget, Cancel: cfg.cancelled})
		if err != nil {
			res.Rows = append(res.Rows, Row{Label: qn + "/LJ", Note: "exact count over budget"})
			continue
		}
		truth := float64(exact.Results)
		row := Row{Label: qn + "/LJ", Values: map[string]float64{}}
		for _, k := range sampleSizes {
			est, err := sampling.EstimateCardinality(rels, order, sampling.Config{
				Samples: k, Seed: cfg.Seed, Cancel: cfg.cancelled,
			})
			if err != nil {
				return res, err
			}
			d := maxRatio(est.Cardinality, truth)
			row.Values[fmt.Sprintf("k=%d", k)] = est.Seconds
			row.Values[fmt.Sprintf("D@%d", k)] = d
		}
		res.Rows = append(res.Rows, row)
	}
	return res, cfg.err()
}

func maxRatio(a, b float64) float64 {
	if a <= 0 && b <= 0 {
		return 1
	}
	if a <= 0 || b <= 0 {
		return math.Inf(1)
	}
	return math.Max(a, b) / math.Min(a, b)
}
