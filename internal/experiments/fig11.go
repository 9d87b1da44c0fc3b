package experiments

import (
	"fmt"

	"adj/internal/dataset"
)

// Fig11 reproduces Fig. 11: ADJ's speed-up on LJ as workers grow from 1 to
// 28. Simulated wall-clock: per-phase max worker time + modeled network
// time, so a 28-worker cluster is timed faithfully on any machine.
// Expected shape: near-linear for Q2/Q3/Q4/Q6, flat for Q1 (system
// overhead dominates a cheap query), sub-linear for Q5 (skew straggler).
func Fig11(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	workerCounts := []int{1, 2, 4, 8, 16, 28}
	res := Result{
		ID:    "Fig11",
		Title: "ADJ speed-up vs workers (LJ); T(1)/T(n)",
	}
	for _, n := range workerCounts {
		res.Columns = append(res.Columns, fmt.Sprintf("n=%d", n))
	}
	edges := dataset.Load("LJ", cfg.Scale)
	for _, qn := range []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"} {
		q, rels := bindQ(qn, edges)
		row := Row{Label: qn + "/LJ", Values: map[string]float64{}}
		var t1 float64
		for _, n := range workerCounts {
			ncfg := cfg
			ncfg.Workers = n
			rep, err := ncfg.run("ADJ", q, rels)
			if err != nil {
				return res, err
			}
			if rep.Failed {
				row.Note = fmt.Sprintf("n=%d FAILED(%s)", n, rep.FailReason)
				continue
			}
			// Exclude optimization (coordinator-side, worker-count
			// independent) as the paper's speedup concerns execution.
			t := rep.PreComputing + rep.Communication + rep.Computation
			if n == 1 {
				t1 = t
			}
			if t1 > 0 && t > 0 {
				row.Values[fmt.Sprintf("n=%d", n)] = t1 / t
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
