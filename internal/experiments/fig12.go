package experiments

import (
	"adj/internal/dataset"
	"adj/internal/engine"
)

// Fig12Datasets reproduces Fig. 12(a)–(c): every engine's total time with
// the query fixed (Q1, Q2, Q3) across all datasets. Failures (budget /
// memory) render as +Inf-style notes, matching the paper's frame-top bars
// and missing bars.
func Fig12Datasets(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:      "Fig12a-c",
		Title:   "Engine total seconds; queries fixed Q1/Q2/Q3, datasets vary",
		Columns: engine.EngineNames(),
	}
	for _, qn := range []string{"Q1", "Q2", "Q3"} {
		for _, ds := range dataset.Names() {
			row, err := engineRow(cfg, qn, ds)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Fig12Queries reproduces Fig. 12(d)–(f): datasets fixed (AS, LJ, OK),
// queries Q1–Q6 vary.
func Fig12Queries(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:      "Fig12d-f",
		Title:   "Engine total seconds; datasets fixed AS/LJ/OK, queries vary",
		Columns: engine.EngineNames(),
	}
	for _, ds := range []string{"AS", "LJ", "OK"} {
		for _, qn := range []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"} {
			row, err := engineRow(cfg, qn, ds)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// engineRow runs all five engines on one test case.
func engineRow(cfg Config, qn, ds string) (Row, error) {
	edges := cfg.graph(ds)
	q, rels := bindQ(qn, edges)
	row := Row{Label: qn + "/" + ds, Values: map[string]float64{}}
	for _, name := range engine.EngineNames() {
		rep, err := cfg.run(name, q, rels)
		if err != nil {
			return row, err
		}
		if rep.Failed {
			if row.Note != "" {
				row.Note += " "
			}
			row.Note += name + "=FAIL(" + rep.FailReason + ")"
			continue
		}
		row.Values[name] = rep.Total()
	}
	return row, nil
}
