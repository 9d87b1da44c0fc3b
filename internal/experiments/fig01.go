package experiments

import "adj/internal/dataset"

// Fig1a reproduces Fig. 1(a): shuffled tuples of one-round (HCubeJ) vs
// multi-round (SparkSQL-style binary join) on Q5 and Q6 over LJ. The paper
// shows multi-round shuffling orders of magnitude more.
func Fig1a(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:      "Fig1a",
		Title:   "One-round vs multi-round: tuples shuffled (LJ)",
		Columns: []string{"OneRound", "MultiRound"},
	}
	edges := cfg.graph("LJ")
	for _, qn := range []string{"Q5", "Q6"} {
		q, rels := bindQ(qn, edges)
		one, err := cfg.run("HCubeJ", q, rels)
		if err != nil {
			return res, err
		}
		multi, err := cfg.run("SparkSQL", q, rels)
		if err != nil {
			return res, err
		}
		row := Row{Label: qn + "/LJ", Values: map[string]float64{
			"OneRound":   float64(one.TuplesShuffled),
			"MultiRound": float64(multi.TuplesShuffled),
		}}
		if multi.Failed {
			row.Note = "multi-round FAILED(" + multi.FailReason + "): tuple count is a lower bound"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig1b reproduces Fig. 1(b): cost breakdown of the communication-first
// strategy vs co-optimization on Q5 and Q6 over LJ. Bars: Comm
// (communication), Comp (computation), Pre+Comm (pre-computing +
// communication for the co-opt strategy).
func Fig1b(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:      "Fig1b",
		Title:   "Comm-first vs co-opt cost breakdown, seconds (LJ)",
		Columns: []string{"CF-Comm", "CF-Comp", "CO-Pre+Comm", "CO-Comp"},
	}
	edges := dataset.Load("LJ", cfg.Scale)
	for _, qn := range []string{"Q5", "Q6"} {
		q, rels := bindQ(qn, edges)
		cf, err := cfg.run("ADJ(comm-first)", q, rels)
		if err != nil {
			return res, err
		}
		co, err := cfg.run("ADJ", q, rels)
		if err != nil {
			return res, err
		}
		row := Row{Label: qn + "/LJ", Values: map[string]float64{
			"CF-Comm":     cf.Communication,
			"CF-Comp":     cf.Computation,
			"CO-Pre+Comm": co.PreComputing + co.Communication,
			"CO-Comp":     co.Computation,
		}}
		if cf.Failed {
			row.Note = "comm-first FAILED(" + cf.FailReason + ")"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
