package experiments

import (
	"adj/internal/costmodel"
	"adj/internal/dataset"
	"adj/internal/ghd"
	"adj/internal/leapfrog"
	"adj/internal/optimizer"
)

// Fig8 reproduces Fig. 8: effectiveness of attribute-order pruning. For
// Q4–Q6 over every dataset it measures the exact number of intermediate
// tuples under four orders:
//
//	Invalid-Max    — worst order among those NOT valid for the hypertree
//	Valid-Max      — worst order among the valid ones
//	All-Selected   — the order HCubeJ picks when searching all n! orders
//	Valid-Selected — the order ADJ picks among valid orders
//
// Expected shape: Valid-Max ≤ Invalid-Max and Valid-Selected ≤ All-Selected.
func Fig8(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	// Exact counts for every order are expensive; measure on a reduced
	// scale — and with a tight per-order budget — so 120 orders × 18 test
	// cases stay fast. Orders that exceed the budget report it as a lower
	// bound, which preserves every max-comparison the figure makes.
	scale := cfg.Scale / 2
	perOrderBudget := cfg.Budget / 20
	if perOrderBudget < 100_000 {
		perOrderBudget = 100_000
	}
	res := Result{
		ID:      "Fig8",
		Title:   "Attribute-order pruning: intermediate tuples per order class",
		Columns: []string{"Invalid-Max", "Valid-Max", "All-Selected", "Valid-Selected"},
	}
	for _, qn := range []string{"Q4", "Q5", "Q6"} {
		for _, ds := range dataset.Names() {
			if err := cfg.err(); err != nil {
				return res, err
			}
			edges := dataset.Load(ds, scale)
			q, rels := bindQ(qn, edges)
			d, err := ghd.Decompose(q)
			if err != nil {
				return res, err
			}
			valid := make(map[string]bool)
			for _, o := range d.ValidAttrOrders() {
				valid[orderKey(o)] = true
			}
			all := ghd.AllAttrOrders(q.Attrs())
			counts := make(map[string]float64, len(all))
			var invalidMax, validMax float64
			truncated := false
			for _, ord := range all {
				st, err := leapfrog.JoinRelations(rels, ord, leapfrog.Options{Budget: perOrderBudget, Cancel: cfg.cancelled})
				var c float64
				if err != nil {
					c = float64(perOrderBudget) // at least this much
					truncated = true
				} else {
					c = float64(st.Total())
				}
				counts[orderKey(ord)] = c
				if valid[orderKey(ord)] {
					if c > validMax {
						validMax = c
					}
				} else if c > invalidMax {
					invalidMax = c
				}
			}
			// Selected orders via the sampling-based chooser.
			opt, err := optimizer.New(q, rels, optimizer.Options{
				Params:  costmodel.DefaultParams(cfg.Workers),
				Samples: cfg.Samples,
				Seed:    cfg.Seed,
				Cancel:  cfg.cancelled,
			})
			if err != nil {
				return res, err
			}
			// All-Selected: the comm-first baseline's sketch-based selection
			// over all n! orders; Valid-Selected: ADJ's sampling-based
			// selection restricted to valid orders.
			allSel := opt.ChooseOrderSketch(all)
			validSel := opt.ChooseOrder(d.ValidAttrOrders())
			row := Row{Label: qn + "/" + ds, Values: map[string]float64{
				"Invalid-Max":    invalidMax,
				"Valid-Max":      validMax,
				"All-Selected":   counts[orderKey(allSel)],
				"Valid-Selected": counts[orderKey(validSel)],
			}}
			if truncated {
				row.Note = "some orders hit the budget (lower bounds)"
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, cfg.err()
}

func orderKey(o []string) string {
	k := ""
	for _, a := range o {
		k += a + "\x00"
	}
	return k
}
