package experiments

import "adj/internal/dataset"

// Table1 reproduces Table I: dataset statistics (for the synthetic
// analogues at the configured scale).
func Table1(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:      "Table1",
		Title:   "Datasets (synthetic analogues; |R| scales with --scale)",
		Columns: []string{"Edges", "Nodes", "MaxOutDeg", "AvgDeg", "SizeMB"},
	}
	for _, name := range dataset.Names() {
		st := dataset.StatsOf(name, cfg.graph(name))
		res.Rows = append(res.Rows, Row{Label: name, Values: map[string]float64{
			"Edges":     float64(st.Edges),
			"Nodes":     float64(st.Nodes),
			"MaxOutDeg": float64(st.MaxOut),
			"AvgDeg":    st.AvgDegree,
			"SizeMB":    st.SizeMB,
		}})
	}
	return res, nil
}

// Table2 reproduces Table II (AS dataset): co-optimization vs
// communication-first, cost breakdown per phase for Q4–Q6.
func Table2(cfg Config) (Result, error) { return coOptTable(cfg, "Table2", "AS") }

// Table3 reproduces Table III (LJ dataset).
func Table3(cfg Config) (Result, error) { return coOptTable(cfg, "Table3", "LJ") }

// Table4 reproduces Table IV (OK dataset).
func Table4(cfg Config) (Result, error) { return coOptTable(cfg, "Table4", "OK") }

func coOptTable(cfg Config, id, ds string) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    id,
		Title: "Co-opt vs comm-first on " + ds + " (seconds)",
		Columns: []string{
			"CO-Opt", "CO-Pre", "CO-Comm", "CO-Comp", "CO-Total",
			"CF-Opt", "CF-Comm", "CF-Comp", "CF-Total",
		},
	}
	edges := cfg.graph(ds)
	for _, qn := range []string{"Q4", "Q5", "Q6"} {
		q, rels := bindQ(qn, edges)
		co, err := cfg.run("ADJ", q, rels)
		if err != nil {
			return res, err
		}
		cf, err := cfg.run("ADJ(comm-first)", q, rels)
		if err != nil {
			return res, err
		}
		row := Row{Label: qn + "/" + ds, Values: map[string]float64{
			"CO-Opt":   co.Optimization,
			"CO-Pre":   co.PreComputing,
			"CO-Comm":  co.Communication,
			"CO-Comp":  co.Computation,
			"CO-Total": co.Total(),
			"CF-Opt":   cf.Optimization,
			"CF-Comm":  cf.Communication,
			"CF-Comp":  cf.Computation,
			"CF-Total": cf.Total(),
		}}
		if co.Failed {
			row.Note += "co-opt FAILED(" + co.FailReason + ") "
		}
		if cf.Failed {
			row.Note += "comm-first FAILED(" + cf.FailReason + ") — total is a lower bound"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
