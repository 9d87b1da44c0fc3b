package experiments

import (
	"fmt"
	"time"

	"adj"
)

// SessionReuse measures the server-resident Session surface on the exact
// workload the other experiments sweep: the same query repeated against
// unchanged registered relations. Each query is prepared once (planning
// amortized) and executed three times; the first execution is cold (HCube
// shuffle + shuffle-side trie builds, published to the session store), the
// rest go warm — zero shuffle traffic and zero trie builds, served from the
// content-keyed store. Columns report measured wall seconds and the
// registry counters that prove the reuse.
func SessionReuse(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.err(); err != nil {
		return Result{}, err
	}
	res := Result{
		ID:      "session",
		Title:   "Session repeated-query reuse (ADJ, LJ): cold vs warm execution",
		Columns: []string{"ColdSec", "WarmSec", "Speedup", "ColdBuilds", "WarmBuilds", "WarmHits"},
	}
	edges := cfg.graph("LJ")
	for _, qn := range []string{"Q1", "Q2", "Q3"} {
		row, err := sessionReuseRow(cfg, qn, edges)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// sessionReuseRow measures one query on its own session. A fresh session
// per query matters: the store's content keying deliberately crosses
// queries (a later query whose shuffle agrees on shares and permutation
// adopts an earlier query's tries), which would turn a "cold" row warm and
// flatten the measured speedup.
func sessionReuseRow(cfg Config, qn string, edges *adj.Relation) (Row, error) {
	sess, err := adj.Open(adj.Options{
		Workers: cfg.Workers, Samples: cfg.Samples, Seed: cfg.Seed, Budget: cfg.Budget,
	})
	if err != nil {
		return Row{}, err
	}
	defer sess.Close()
	if err := sess.Register("edges", edges); err != nil {
		return Row{}, err
	}
	pq, err := sess.PrepareGraph("ADJ", adj.CatalogQuery(qn), "edges")
	if err != nil {
		return Row{}, err
	}
	var coldSec, warmSec float64
	var coldBuilds, warmBuilds, warmHits int64
	var warmRuns int
	var count int64 = -1
	for exec := 0; exec < 3; exec++ {
		t0 := time.Now()
		r, err := pq.Exec(cfg.Ctx, adj.CountOnly())
		if err != nil {
			return Row{}, fmt.Errorf("%s exec %d: %w", qn, exec, err)
		}
		wall := time.Since(t0).Seconds()
		rep := r.Report()
		if rep.Failed {
			return Row{}, fmt.Errorf("%s exec %d failed: %s", qn, exec, rep.FailReason)
		}
		if count < 0 {
			count = r.Count()
		} else if r.Count() != count {
			return Row{}, fmt.Errorf("%s exec %d: count %d != cold count %d", qn, exec, r.Count(), count)
		}
		if exec == 0 {
			coldSec = wall
			coldBuilds = rep.TrieBuilds
			continue
		}
		warmSec += wall
		warmBuilds += rep.TrieBuilds
		warmHits += rep.TrieCacheHits
		warmRuns++
	}
	warmSec /= float64(warmRuns)
	speedup := 0.0
	if warmSec > 0 {
		speedup = coldSec / warmSec
	}
	return Row{
		Label: qn + fmt.Sprintf(" (|Q|=%d)", count),
		Values: map[string]float64{
			"ColdSec":    coldSec,
			"WarmSec":    warmSec,
			"Speedup":    speedup,
			"ColdBuilds": float64(coldBuilds),
			"WarmBuilds": float64(warmBuilds),
			"WarmHits":   float64(warmHits),
		},
	}, nil
}
