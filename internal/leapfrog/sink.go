package leapfrog

// Sink receives join results in batched, columnar-friendly form. Results
// of a worst-case-optimal join arrive as runs: every tuple of a run shares
// the binding of all attributes except the deepest, which the leaf-level
// intersection enumerates in sorted order. A sink is told the shared
// prefix once per run (BeginRun) and then handed whole slices of leaf
// values (AppendRun) — a single-relation leaf holds them contiguously in
// trie storage and the intersection kernels stage theirs in one buffer, so
// no per-tuple callback sits between the intersection and the output
// columns.
//
// relation.ColumnWriter satisfies Sink directly and is the production
// implementation.
type Sink interface {
	// BeginRun announces the binding prefix (values of order[0:d], where d
	// is the leaf depth) shared by subsequent AppendRun calls. The slice
	// aliases the joiner's binding buffer; copy to retain past the call.
	BeginRun(prefix []Value)
	// AppendRun delivers sorted leaf values extending the current prefix,
	// one result tuple per value. The slice may alias trie storage or
	// joiner scratch; copy to retain past the call.
	AppendRun(vals []Value)
}

// deliver hands one run to the sink and maintains the emitted-run
// counters; used by every leaf path so accounting cannot drift.
func deliver(sink Sink, st *Stats, vals []Value) {
	if len(vals) == 0 {
		return
	}
	sink.AppendRun(vals)
	st.EmittedRuns++
	st.EmittedValues += int64(len(vals))
}
