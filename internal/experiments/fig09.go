package experiments

import (
	"adj/internal/cluster"
	"adj/internal/costmodel"
	"adj/internal/dataset"
	"adj/internal/hcube"
)

// Fig9 reproduces Fig. 9: the three HCube implementations (Push, Pull,
// Merge) compared on communication and computation cost, for Q2 over every
// dataset. Communication is the modeled exchange time; computation covers
// the shuffle's local work plus trie construction at the receivers (which
// Merge skips by shipping pre-built tries).
func Fig9(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:      "Fig9",
		Title:   "HCube implementations (Q2): comm/comp seconds",
		Columns: []string{"Push-Comm", "Pull-Comm", "Merge-Comm", "Push-Comp", "Pull-Comp", "Merge-Comp"},
	}
	for _, ds := range dataset.Names() {
		if err := cfg.err(); err != nil {
			return res, err
		}
		edges := cfg.graph(ds)
		q, rels := bindQ("Q2", edges)
		order := q.Attrs()
		infos := hcube.InfoOf(rels)
		row := Row{Label: "Q2/" + ds, Values: map[string]float64{}}
		for _, kind := range []hcube.Kind{hcube.Push, hcube.Pull, hcube.Merge} {
			// Sequential: the figure reports simulated per-worker timings
			// (see Config.engineConfig).
			c := cluster.New(cluster.Config{N: cfg.Workers, Sequential: true})
			c.SetContext(cfg.Ctx)
			c.LoadDatabase(rels)
			shares, err := hcube.Optimize(infos, hcube.Config{Attrs: order, NumServers: cfg.Workers})
			if err != nil {
				return res, err
			}
			if err := hcube.Run(c, "shuffle", hcube.Plan{
				Shares: shares, Rels: infos, Kind: kind, TrieOrder: order,
			}); err != nil {
				return res, err
			}
			// Receiver-side trie construction: materialize every worker's
			// tries from its block registry (as the join engine would at
			// first use). Push/Pull build each block from its raw tuple
			// parts here; Merge merges the pre-built parts it received, one
			// per sender that held tuples of the block — the cost gap the
			// figure reports.
			err = c.Parallel("tries", func(w *cluster.Worker) error {
				for _, ri := range infos {
					w.Blocks.Trie(ri.Name)
				}
				return nil
			})
			if err != nil {
				return res, err
			}
			var comm, comp float64
			for _, e := range c.Metrics.Entries() {
				comm += costmodel.ExchangeSeconds(e)
				comp += e.CompSeconds()
			}
			label := kind.String()
			label = string(label[0]-('a'-'A')) + label[1:]
			row.Values[label+"-Comm"] = comm
			row.Values[label+"-Comp"] = comp
			c.Close()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, cfg.err()
}
