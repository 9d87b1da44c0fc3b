package experiments

import (
	"adj/internal/dataset"
	"adj/internal/ghd"
	"adj/internal/leapfrog"
)

// Fig6 reproduces Fig. 6: the fraction of Leapfrog intermediate tuples
// produced while extending the n-th, (n−1)-th and remaining traversed GHD
// nodes, for Q5 and Q6 over every dataset. The paper's point: the last two
// nodes dominate, so pre-computing them has the greatest benefit.
func Fig6(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:      "Fig6",
		Title:   "% of intermediate tuples by traversed node (last / second-last / rest)",
		Columns: []string{"nth", "(n-1)th", "rest"},
	}
	for _, qn := range []string{"Q5", "Q6"} {
		for _, ds := range dataset.Names() {
			if err := cfg.err(); err != nil {
				return res, err
			}
			edges := cfg.graph(ds)
			q, rels := bindQ(qn, edges)
			d, err := ghd.Decompose(q)
			if err != nil {
				return res, err
			}
			traversal := d.TraversalOrders()[0]
			order := d.AttrOrderFor(traversal)
			st, err := leapfrog.JoinRelations(rels, order, leapfrog.Options{Budget: cfg.Budget, Cancel: cfg.cancelled})
			if err != nil {
				res.Rows = append(res.Rows, Row{Label: qn + "/" + ds, Note: "budget exceeded"})
				continue
			}
			// Attribute each level to the traversed node introducing it.
			groups := d.NewAttrsAt(traversal)
			nodeOfLevel := make([]int, len(order))
			lvl := 0
			for ni, grp := range groups {
				for range grp {
					nodeOfLevel[lvl] = ni
					lvl++
				}
			}
			perNode := make([]float64, len(groups))
			var total float64
			for i, c := range st.LevelTuples {
				perNode[nodeOfLevel[i]] += float64(c)
				total += float64(c)
			}
			if total == 0 {
				continue
			}
			n := len(groups)
			row := Row{Label: qn + "/" + ds, Values: map[string]float64{
				"nth": perNode[n-1] / total,
			}}
			if n >= 2 {
				row.Values["(n-1)th"] = perNode[n-2] / total
			}
			rest := 0.0
			for i := 0; i < n-2; i++ {
				rest += perNode[i]
			}
			row.Values["rest"] = rest / total
			res.Rows = append(res.Rows, row)
		}
	}
	return res, cfg.err()
}
