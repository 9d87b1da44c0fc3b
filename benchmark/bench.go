package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"adj"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units; main_test.go fails when the two drift apart.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_wall_s_p50", "s"},
	{"op_wall_s_p90", "s"},
	{"throughput_ops_s", "ops/s"},
}

var perLayerDefs = []metricDef{
	{"session.open_s", "s"}, {"session.register_s", "s"}, {"session.prepare_s", "s"},
	{"session.exec_s", "s"}, {"session.close_s", "s"}, {"session.fold_s", "s"},
	{"session.plan_cache_hit_rate", "ratio"}, {"session.scaling_efficiency", "ratio"},
	{"optimizer.replan_s_per_op", "s"}, {"optimizer.distinct_plans", "count"},
	{"engine.prepare_s", "s"}, {"sampling.estimate_s", "s"}, {"optimizer.cooptimize_s", "s"},
	{"costmodel.calibrate_s", "s"}, {"hcube.optimize_shares_s", "s"},
	{"engine.precompute_s_per_op", "s"}, {"engine.compute_s_per_op", "s"},
	{"engine.comm_modeled_s_per_op", "s"},
	{"engine.bigjoin_run_s", "s"}, {"engine.sparksql_run_s", "s"},
	{"hcube.shuffle_s", "s"}, {"hcube.shuffle_tuples_per_s", "1/s"},
	{"relation.encode_ns_per_tuple", "ns"}, {"relation.decode_ns_per_tuple", "ns"},
	{"relation.wire_bytes_per_tuple", "bytes"}, {"relation.partition_ns_per_tuple", "ns"},
	{"relation.sort_ns_per_tuple", "ns"}, {"relation.hashjoin_ns_per_tuple", "ns"},
	{"deltaenc.append_run_ns_per_value", "ns"}, {"deltaenc.decode_run_ns_per_value", "ns"},
	{"cluster.shuffle_bytes_per_op", "bytes"}, {"cluster.tuples_shuffled_per_op", "count"},
	{"cluster.messages_per_op", "count"}, {"cluster.stream_chunks_per_op", "count"},
	{"cluster.overlap_s_per_op", "s"}, {"cluster.recv_peak_bytes", "bytes"},
	{"cluster.dials_per_op", "count"}, {"cluster.retries_per_op", "count"},
	{"cluster.local_exchange_mb_s", "MB/s"}, {"cluster.tcp_exchange_mb_s", "MB/s"},
	{"trie.build_ns_per_tuple", "ns"}, {"trie.merge_ns_per_tuple", "ns"},
	{"trie.mem_bytes_per_tuple", "bytes"},
	{"blockcache.cache_blocks_per_op", "count"}, {"blockcache.trie_builds_per_op", "count"},
	{"blockcache.trie_cache_hits_per_op", "count"}, {"blockcache.store_hit_rate", "ratio"},
	{"blockcache.store_evictions_per_op", "count"}, {"blockcache.store_bytes", "bytes"},
	{"blockcache.store_put_ns", "ns"}, {"blockcache.store_snapshot_ns", "ns"},
	{"leapfrog.count_ns_per_result", "ns"}, {"leapfrog.emit_ns_per_result", "ns"},
	{"leapfrog.emitted_values_per_run", "count"}, {"leapfrog.extend_ns_per_binding", "ns"},
	{"admission.queue_wait_s_p50", "s"}, {"admission.admit_release_ns", "ns"},
	{"admission.admitted", "count"}, {"admission.shed", "count"}, {"admission.rejected", "count"},
	{"process.cpu_s_per_op", "s"}, {"process.alloc_bytes_per_op", "bytes"},
	{"process.allocs_per_op", "count"}, {"process.gc_pause_s_per_op", "s"},
	{"process.peak_heap_bytes", "bytes"}, {"process.goroutines_leaked", "count"},
	{"trace.overhead_share", "ratio"}, {"trace.unattributed_share", "ratio"},
}

// metricValue is how a metric is printed and stored.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs measured values with their definitions. A value without a
// definition, or a definition without a value, is a bug in the benchmark.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// quantile returns the p-quantile of vals by linear interpolation between
// order statistics; 0 for no values.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := p * float64(len(s)-1)
	lo := int(at)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (at-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// bench drives one workload: set-up, measured rounds, the traced pass and
// tear-down, and keeps what they measured.
type bench struct {
	w    workload
	next []int // next op index per client; continues across passes

	setupS   []float64
	resident int // goroutines the last set-up left running
	leaked   int // of those, how many close did not stop

	samples []opSample // measured rounds, tracing off
	roundsS float64    // summed wall of the measured rounds

	// What the traced stage left: the per-layer values that come from ops,
	// every op it attempted, and the spans.
	layer     map[string]float64
	tracedOps []opSample
	tracer    *tracer

	firstErr error // first failed op, for the report
}

func newBench(w workload) *bench {
	return &bench{w: w, next: make([]int, w.info().clients)}
}

// setup sets the workload up sz.setupReps times, timing each, and keeps the
// last one resident.
func (b *bench) setup(ctx context.Context) error {
	reps := b.w.info().sz.setupReps
	for r := 0; r < reps; r++ {
		runtime.GC()
		before := runtime.NumGoroutine()
		t0 := time.Now()
		if err := b.w.setup(ctx); err != nil {
			return fmt.Errorf("%s set-up: %w", b.w.info().name, err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		b.resident = runtime.NumGoroutine() - before
		if r < reps-1 {
			if err := b.w.close(); err != nil {
				return fmt.Errorf("%s tear-down: %w", b.w.info().name, err)
			}
		}
	}
	for c := range b.next {
		b.next[c] = b.w.info().sz.warmupOps
	}
	return nil
}

// close tears the workload down and counts the goroutines it left behind.
func (b *bench) close() error {
	before := runtime.NumGoroutine()
	err := b.w.close()
	stopped := 0
	// Exiting goroutines need a moment to leave the scheduler's count.
	for wait := time.Millisecond; wait < time.Second; wait *= 2 {
		if stopped = before - runtime.NumGoroutine(); stopped >= b.resident {
			break
		}
		time.Sleep(wait)
	}
	if b.leaked = b.resident - stopped; b.leaked < 0 {
		b.leaked = 0
	}
	return err
}

// traceBlock is how many consecutive ops of a client are traced, then left
// untraced, in a traced pass. It is a multiple of every workload's rotation
// (serve-churn refreshes every fourth op, cold-adj rotates four graphs), so
// the traced and the untraced half see the same mix of ops.
const traceBlock = 4

// pass runs one closed loop: each of clients goroutines issues its ops back
// to back until d has elapsed and it has run at least minOps. With a tracer,
// every second block of traceBlock ops is traced. It returns the samples and
// the wall time from the first op's start to the last op's end.
func (b *bench) pass(ctx context.Context, clients int, d time.Duration, minOps int, tr *tracer) ([]opSample, float64) {
	perClient := make([][]opSample, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < minOps || time.Since(t0) < d; n++ {
				k := b.next[c]
				b.next[c]++
				var ot *opTrace
				if tr != nil && (k/traceBlock)%2 == 1 {
					ot = tr.beginOp()
				}
				s := b.w.op(ctx, c, k, ot)
				s.traced = ot != nil
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	wallS := time.Since(t0).Seconds()
	var all []opSample
	for _, ss := range perClient {
		all = append(all, ss...)
	}
	for _, s := range all {
		if s.err != nil && b.firstErr == nil {
			b.firstErr = s.err
		}
	}
	return all, wallS
}

// round runs one measured round with tracing off.
func (b *bench) round(ctx context.Context, d time.Duration) {
	samples, wallS := b.pass(ctx, b.w.info().clients, d, 1, nil)
	b.samples = append(b.samples, samples...)
	b.roundsS += wallS
}

// walls returns the timed sections of the ops that succeeded.
func walls(samples []opSample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s.wallS)
		}
	}
	return out
}

func failures(samples []opSample) int {
	n := 0
	for _, s := range samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics from the measured rounds.
func (b *bench) endToEnd() map[string]float64 {
	ok := walls(b.samples)
	return map[string]float64{
		"setup_s":          median(b.setupS),
		"op_wall_s_p50":    quantile(ok, 0.5),
		"op_wall_s_p90":    quantile(ok, 0.9),
		"throughput_ops_s": ratio(float64(len(ok)), b.roundsS),
	}
}

// processSnap is the process-level state read before and after a pass.
type processSnap struct {
	cpuS   float64
	mem    runtime.MemStats
	server adj.ServerStats
}

func (b *bench) snap() processSnap {
	var p processSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	runtime.ReadMemStats(&p.mem)
	if srv := b.w.info().srv; srv != nil {
		p.server = srv.Stats()
	}
	return p
}

// planShape strips the timing-calibrated cost estimates from a Report.Plan,
// leaving what decides how the query runs.
func planShape(plan string) string {
	if i := strings.Index(plan, " est="); i >= 0 {
		return plan[:i]
	}
	return plan
}

// tracedStage runs, on the resident workload, a pass in which every second
// block of ops is traced, then a single-client pass, and derives the
// per-layer metrics that come from ops: span medians, program-reported
// counters, process and server deltas. The layer probes and the leak count
// are added by the caller.
func (b *bench) tracedStage(ctx context.Context, seconds float64) {
	wi := b.w.info()
	tr := newTracer()
	runtime.GC()
	pre := b.snap()
	// Any 2·traceBlock consecutive ops hold traceBlock traced ones.
	minOps := 2 * max(wi.sz.tracedOps, traceBlock)
	samples, wallS := b.pass(ctx, wi.clients, time.Duration(0.6*seconds*float64(time.Second)), minOps, tr)
	post := b.snap()
	single, singleS := b.pass(ctx, 1, time.Duration(0.2*seconds*float64(time.Second)), wi.sz.tracedOps, nil)

	n := float64(len(samples))
	var sum opStats
	var queue []float64
	plans := make(map[string]bool)
	cached := 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		sum.add(s.st)
		queue = append(queue, s.st.queueS)
		plans[planShape(s.st.plan)] = true
		if s.st.optimizeS == 0 {
			cached++
		}
	}
	okOps := float64(len(queue))
	perOp := func(v float64) float64 { return ratio(v, okOps) }

	m := map[string]float64{
		"session.plan_cache_hit_rate": ratio(float64(cached), okOps),
		"session.scaling_efficiency": ratio(ratio(okOps, wallS),
			float64(wi.clients)*ratio(float64(len(single)-failures(single)), singleS)),
		"optimizer.replan_s_per_op":    perOp(sum.optimizeS),
		"optimizer.distinct_plans":     float64(len(plans)),
		"engine.precompute_s_per_op":   perOp(sum.precomputeS),
		"engine.compute_s_per_op":      perOp(sum.computeS),
		"engine.comm_modeled_s_per_op": perOp(sum.commModeledS),

		"cluster.shuffle_bytes_per_op":   perOp(float64(sum.bytes)),
		"cluster.tuples_shuffled_per_op": perOp(float64(sum.tuples)),
		"cluster.messages_per_op":        perOp(float64(sum.messages)),
		"cluster.stream_chunks_per_op":   perOp(float64(sum.chunks)),
		"cluster.overlap_s_per_op":       perOp(sum.overlapS),
		"cluster.recv_peak_bytes":        float64(sum.recvPeak),
		"cluster.dials_per_op":           perOp(float64(sum.dials)),
		"cluster.retries_per_op":         perOp(float64(sum.retries)),

		"blockcache.cache_blocks_per_op":    perOp(float64(sum.cacheBlocks)),
		"blockcache.trie_builds_per_op":     perOp(float64(sum.trieBuilds)),
		"blockcache.trie_cache_hits_per_op": perOp(float64(sum.trieHits)),
		"leapfrog.emitted_values_per_run":   ratio(float64(sum.emittedValues), float64(sum.emittedRuns)),

		"admission.queue_wait_s_p50": median(queue),

		"process.cpu_s_per_op":       ratio(post.cpuS-pre.cpuS, n),
		"process.alloc_bytes_per_op": ratio(float64(post.mem.TotalAlloc-pre.mem.TotalAlloc), n),
		"process.allocs_per_op":      ratio(float64(post.mem.Mallocs-pre.mem.Mallocs), n),
		"process.gc_pause_s_per_op":  ratio(float64(post.mem.PauseTotalNs-pre.mem.PauseTotalNs)/1e9, n),
		"process.peak_heap_bytes":    float64(post.mem.HeapSys),
	}

	// Store and admission counters are the server's own, as deltas over the
	// pass; workloads without a server report zeros.
	store, adm := post.server.Store, post.server.Admission
	hits := float64(store.Hits - pre.server.Store.Hits)
	misses := float64(store.Misses - pre.server.Store.Misses)
	m["blockcache.store_hit_rate"] = ratio(hits, hits+misses)
	m["blockcache.store_evictions_per_op"] = ratio(float64(store.Evictions-pre.server.Store.Evictions), n)
	m["blockcache.store_bytes"] = float64(store.Bytes)
	m["admission.admitted"] = float64(adm.Admitted - pre.server.Admission.Admitted)
	m["admission.shed"] = float64(adm.Shed - pre.server.Admission.Shed)
	m["admission.rejected"] = float64(adm.Rejected - pre.server.Admission.Rejected)

	// Spans: the per-op median of each public call, and how much of the op
	// its child spans leave unexplained.
	// A span a workload's ops never open reports 0.
	for _, name := range []string{"session.open", "session.register", "session.prepare", "session.exec",
		"session.close", "session.fold", "engine.bigjoin_run", "engine.sparksql_run"} {
		m[name+"_s"] = 0
	}
	for _, s := range tr.summarize() {
		if s.Name == "op" {
			m["trace.unattributed_share"] = ratio(s.SelfS, s.MedianS)
		} else {
			m[s.Name+"_s"] = s.MedianS
		}
	}
	var traced, untraced []opSample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	base := median(walls(untraced))
	m["trace.overhead_share"] = ratio(median(walls(traced))-base, base)
	b.layer, b.tracedOps, b.tracer = m, append(samples, single...), tr
}
