package adj

import (
	"fmt"

	"adj/internal/relation"
)

// Results is an execution's outcome: the run report plus a streaming,
// run-aware iterator over the materialized result relation.
//
// Results arrive from the engines as prefix-replicated runs — all output
// tuples sharing a binding of the first k-1 attributes, differing only in
// the last — and NextRun surfaces exactly that structure without
// gathering rows: the prefix is one k-1 tuple, the values are a zero-copy
// slice of the result's last column. Rows returns the result relation
// itself for callers that want a plain Relation.
type Results struct {
	rep Report
	out *relation.Relation
	// iteration state over the columnar output
	cols   [][]Value
	prefix []Value // reused across NextRun calls (the documented aliasing)
	row    int
}

func newResults(rep Report) *Results {
	return &Results{rep: rep, out: rep.Output}
}

// Report returns the execution's full report (counters, cost breakdown,
// plan, cache statistics, and — for session executions — the serving-tier
// fields QueueSeconds and AdmissionClass).
func (r *Results) Report() Report { return r.rep }

// QueueSeconds is how long this execution waited in the admission queue
// before a pool cluster freed (0 when a slot was free on arrival).
func (r *Results) QueueSeconds() float64 { return r.rep.QueueSeconds }

// Count returns the number of result tuples (available on CountOnly runs
// too).
func (r *Results) Count() int64 { return r.rep.Results }

// Err returns the execution's terminal status.
//
// Contract: Exec never returns a Results for a failed or cancelled
// execution — those return (nil, error), and an error from Exec means no
// partial output exists anywhere. The one degraded case that does produce
// a Results is a budget/memory failure (Report.Failed — the paper's
// frame-top bars), which the engines report as data, not as an error. Err
// makes that case visible to streaming consumers that only see the
// iterator: it returns nil when the run completed (NextRun's ok=false then
// means "result set exhausted" or CountOnly), and the failure otherwise
// (ok=false then means "the run did not finish"). Err is valid at any
// point of iteration and does not change with iterator position.
func (r *Results) Err() error {
	if r.rep.Failed {
		return fmt.Errorf("adj: %s run on %s failed: %s", r.rep.Engine, r.rep.Query, r.rep.FailReason)
	}
	return nil
}

// Attrs returns the result schema in the execution's attribute order, or
// nil for CountOnly runs.
func (r *Results) Attrs() []string {
	if r.out == nil {
		return nil
	}
	return r.out.Attrs
}

// NextRun returns the next result run: the shared prefix (all attributes
// but the last, aliasing iterator-internal storage) and the run's values
// for the last attribute (a zero-copy slice of the result's last column).
// ok is false when the results are exhausted — or were never materialized
// (CountOnly). Copy both slices to retain them across calls.
func (r *Results) NextRun() (prefix []Value, values []Value, ok bool) {
	if r.out == nil || r.out.Len() == 0 {
		return nil, nil, false
	}
	if r.cols == nil {
		r.cols = r.out.Columns()
	}
	n := r.out.Len()
	if r.row >= n {
		return nil, nil, false
	}
	k := len(r.cols)
	i := r.row
	j := i + 1
	// A run extends while every prefix column repeats its value at i.
scan:
	for ; j < n; j++ {
		for c := 0; c < k-1; c++ {
			if r.cols[c][j] != r.cols[c][i] {
				break scan
			}
		}
	}
	if r.prefix == nil {
		r.prefix = make([]Value, k-1)
	}
	for c := 0; c < k-1; c++ {
		r.prefix[c] = r.cols[c][i]
	}
	values = r.cols[k-1][i:j:j]
	r.row = j
	return r.prefix, values, true
}

// Rows returns the materialized result relation. It returns nil on
// CountOnly executions. The relation is the execution's own output; do not mutate it
// while also iterating runs.
func (r *Results) Rows() *Relation { return r.out }

// Reset rewinds the run iterator to the first result.
func (r *Results) Reset() { r.row = 0 }
