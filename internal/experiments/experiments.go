// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the simulated cluster. Each experiment returns a
// structured result plus a text rendering with the same rows/series the
// paper reports; cmd/experiments prints them and bench_test.go wraps them
// in testing.B benchmarks.
//
// Scale note: datasets are the synthetic Table-I analogues at a
// configurable scale (1.0 ≈ paper ×10⁻³). Absolute seconds differ from the
// paper's 28-node cluster by construction; the *shapes* (who wins, by what
// factor, where methods fail) are the reproduction target — see
// EXPERIMENTS.md for paper-vs-measured notes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"adj/internal/dataset"
	"adj/internal/engine"
	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// Config tunes all experiments.
type Config struct {
	// Scale multiplies dataset sizes (1.0 ≈ paper ×10⁻³). Default 0.1 keeps
	// the full suite under a few minutes.
	Scale float64
	// Workers is the cluster size (default 8; the paper's figures use 28).
	Workers int
	// Samples per estimation (default 500).
	Samples int
	Seed    int64
	// Budget caps per-run intermediate work; exceeded runs are reported as
	// failures, like the paper's 12-hour/OOM bars. Default 30M units.
	Budget int64
	// Ctx is the context every engine run and session execution of an
	// experiment observes; cmd/experiments passes its signal-cancelled
	// root. Required: experiments that execute a query fail without one.
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Samples <= 0 {
		c.Samples = 500
	}
	if c.Budget == 0 {
		c.Budget = 30_000_000
	}
	return c
}

func (c Config) engineConfig() engine.Config {
	return engine.Config{
		NumServers: c.Workers,
		Samples:    c.Samples,
		Seed:       c.Seed,
		Budget:     c.Budget,
		Ctx:        c.Ctx,
		// The figures reproduce the paper's *simulated* cluster timings:
		// sequential mode measures each worker in isolation and charges the
		// max, so a 28-worker run is timed faithfully (and repeatably) on a
		// 2-core machine. The goroutine-parallel default would fold CPU
		// contention between simulated workers into the phase times.
		Sequential: true,
	}
}

// err reports why an experiment must stop: it has no context, or its
// context is done. Figures that drive kernels directly (no engine run to
// check for them) call it once per row, and once more on return so a
// cancel that landed inside the last row's kernel is not reported as a
// finished figure.
func (c Config) err() error {
	if c.Ctx == nil {
		return errors.New("experiments: Config.Ctx is nil (a context is required)")
	}
	return c.Ctx.Err()
}

// cancelled is the poll those kernels take (leapfrog, sampling and
// optimizer Cancel hooks); valid once err has been checked.
func (c Config) cancelled() bool { return c.Ctx.Err() != nil }

// run executes one engine of the table on the simulated cluster, under the
// experiment's context — the one way experiments run a query.
func (c Config) run(name string, q hypergraph.Query, rels []*relation.Relation) (engine.Report, error) {
	return engine.Run(name, q, rels, c.engineConfig())
}

// graph loads a named dataset at the config's scale.
func (c Config) graph(name string) *relation.Relation {
	return dataset.Load(name, c.Scale)
}

// bind binds a catalog query to a dataset's edge relation.
func bindQ(qname string, edges *relation.Relation) (hypergraph.Query, []*relation.Relation) {
	q := hypergraph.Get(qname)
	return q, q.BindGraph(edges)
}

// Row is one labelled series entry of a figure.
type Row struct {
	Label  string
	Values map[string]float64
	Note   string
}

// Result is a rendered experiment.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "%-24s", "")
	for _, c := range r.Columns {
		fmt.Fprintf(&sb, "%16s", c)
	}
	sb.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-24s", row.Label)
		for _, c := range r.Columns {
			v, ok := row.Values[c]
			if !ok {
				fmt.Fprintf(&sb, "%16s", "-")
				continue
			}
			fmt.Fprintf(&sb, "%16.4g", v)
		}
		if row.Note != "" {
			fmt.Fprintf(&sb, "  %s", row.Note)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// figures is the one list of experiments, in paper order; ByID and IDs
// derive from it (cmd/experiments' "-exp all" walks IDs).
var figures = []struct {
	id string
	fn func(Config) (Result, error)
}{
	{"table1", Table1},
	{"fig1a", Fig1a},
	{"fig1b", Fig1b},
	{"fig6", Fig6},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12a", Fig12Datasets},
	{"fig12d", Fig12Queries},
	{"table2", Table2},
	{"table3", Table3},
	{"table4", Table4},
	{"session", SessionReuse},
}

// ByID returns the experiment runner for an id, or nil.
func ByID(id string) func(Config) (Result, error) {
	for _, f := range figures {
		if f.id == id {
			return f.fn
		}
	}
	return nil
}

// IDs lists experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}
