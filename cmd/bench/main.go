// Command bench snapshots the performance of the execution hot path so PRs
// have a trajectory to compare against. It runs the tier-2 micro-benchmarks
// (trie build, k-way trie merge, single-cube Leapfrog, result listing
// through the batched columnar sink, shuffle encode/decode, hash
// partitioning — one bench per kernel) plus the triangle
// query end-to-end on every engine over a generated power-law graph at
// CubesPerServer=4 (a shared-block workload),
// verifies the engines agree on the result count, that the block-trie
// cache built each (relation, block) trie exactly once per worker, and
// that collected results flow through the batched emit sink (nonzero
// emitted-run counters, allocs under a pinned ceiling), and writes a JSON
// snapshot (BENCH_<n>.json at the repo root by convention).
//
// It also measures the Session repeated-query workload: the triangle query
// prepared once and executed cold then warm on a resident session. The
// invariants — warm executions perform zero shuffle-side trie builds and
// stream results byte-for-byte identical to the one-shot baseline — are
// enforced in every mode including -quick, so CI catches a silent
// regression of the session trie store; the cold/warm wall times and
// store footprint land in the snapshot's "session" section.
//
// Since PR 6 every mode also enforces a fault-free-parity invariant:
// each engine re-run through a quiescent fault-injection transport (the
// full robustness chain — panic recovery, the wrapped exchange stream,
// retry accounting — engaged, zero faults armed) must return exactly the
// plain run's result with zero recovered panics and zero transport
// retries, so the recover/retry wrappers cost nothing on the happy path.
//
// Every mode also enforces the exchange invariants: each engine's parallel
// run equals its Config.Sequential run as sorted output and moves chunks,
// and a multi-round BigJoin over the TCP transport dials at most workers²
// connections.
//
// Since PR 9 every mode also drives the multi-tenant serving tier: a bulk
// flood through a one-slot admission gate must shed with typed
// *adj.OverloadError rejections (positive retry hints) while every
// interactive request completes within a fairness bound; two sessions
// opened through one Server must warm each other (the second session's
// first execution builds zero tries). N warmed executions run serialized
// and then concurrently over the cluster pool are timed and recorded as
// concurrent_speedup but not asserted: one exec already runs its workers
// on goroutines, so the ratio depends on the host's core count (scaling
// efficiency is measured by benchmark/'s single-client pass). The counters
// land in the snapshot's "serving" section.
//
// When a reference snapshot exists (-ref, default BENCH_8.json), the
// output embeds a before/after comparison for every shared benchmark key
// plus per-engine timing, so BENCH_9.json directly reports single-query
// latency against the PR-8 numbers alongside the new serving counters.
//
//	go run ./cmd/bench                  # writes BENCH_9.json, compares to BENCH_8.json
//	go run ./cmd/bench -scale 0.1 -out /tmp/b.json -ref ""
//	go run ./cmd/bench -quick -out /tmp/smoke.json -ref ""   # CI smoke: engines + emit + session + parity + serving invariants
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	mrand "math/rand"
	"os"
	"runtime"
	sortslice "sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adj"
	"adj/internal/blockcache"
	"adj/internal/cluster"
	"adj/internal/engine"
	"adj/internal/faultinject"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/leapfrog"
	"adj/internal/relation"
	"adj/internal/trie"
)

// Metric is one benchmark result.
type Metric struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
}

// EngineRun is one engine's end-to-end triangle measurement.
type EngineRun struct {
	Results        int64   `json:"results"`
	TuplesShuffled int64   `json:"tuples_shuffled"`
	BytesShuffled  int64   `json:"bytes_shuffled"`
	TotalSeconds   float64 `json:"total_modeled_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	// Block-trie cache counters (HCube engines; zero otherwise): with the
	// shared cache each (relation, block) trie is built exactly once per
	// worker, so TrieBuilds == CacheBlocks and TrieCacheHits counts the
	// cross-cube reuse.
	CacheBlocks   int64 `json:"cache_blocks,omitempty"`
	TrieBuilds    int64 `json:"trie_builds,omitempty"`
	TrieCacheHits int64 `json:"trie_cache_hits,omitempty"`
}

// EngineVsRef compares one engine's wall time against the reference
// snapshot: speedup > 1 means this snapshot is faster.
type EngineVsRef struct {
	RefWallSeconds float64 `json:"ref_wall_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	Speedup        float64 `json:"speedup"`
}

// VsRef compares one benchmark against the reference snapshot: speedup > 1
// means this snapshot is faster.
type VsRef struct {
	RefNsPerOp float64 `json:"ref_ns_op"`
	NsPerOp    float64 `json:"ns_op"`
	Speedup    float64 `json:"speedup"`
}

// Snapshot is the written file.
type Snapshot struct {
	Generated    string               `json:"generated"`
	GoVersion    string               `json:"go_version"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	Dataset      string               `json:"dataset"`
	Scale        float64              `json:"scale"`
	Edges        int                  `json:"edges"`
	Query        string               `json:"query"`
	Benchmarks   map[string]Metric    `json:"benchmarks"`
	EncodedBytes map[string]int       `json:"encoded_bytes_per_block"`
	Engines      map[string]EngineRun `json:"engines"`
	// CubesPerServer documents the cube fan-out of the Engines runs (4 by
	// default: the shared-block workload the block-trie cache targets).
	// EnginesCPS1 holds the one-cube-per-server runs comparable to earlier
	// snapshots, and EnginesVsReference compares those against the
	// reference (earlier snapshots ran cps=1).
	CubesPerServer int                  `json:"cubes_per_server"`
	EnginesCPS1    map[string]EngineRun `json:"engines_cps1,omitempty"`
	// Session is the repeated-query session workload: the triangle query
	// prepared once, executed cold (shuffle + trie builds, published to the
	// session store) then warm (shuffle skipped, tries adopted).
	Session *SessionBench `json:"session,omitempty"`
	// Streaming is the pipelined-shuffle workload: parallel-vs-sequential
	// parity across every engine, comm/compute overlap on a shuffle-heavy
	// run, and dial amortization over the persistent TCP transport.
	Streaming *StreamBench `json:"streaming,omitempty"`
	// Hybrid is the strategy-routing workload: a path-attached triangle
	// where the Hybrid engine's split plan (semijoin-reduced WCOJ core +
	// ear hash joins) must beat both the pure leapfrog and the pure binary
	// strategies on modeled cost, with a warm plan-cache hit charging zero
	// planning seconds.
	Hybrid *HybridBench `json:"hybrid,omitempty"`
	// Serving is the multi-tenant serving workload: overload shedding
	// under a bulk flood (typed rejections, interactive completion, a
	// fairness bound on interactive waits), cross-session store warmth
	// through a Server handle, and concurrent-vs-serialized Exec
	// throughput over the cluster pool.
	Serving *ServingBench `json:"serving,omitempty"`
	// Reference names the snapshot the VsReference section compares
	// against (empty when none was found).
	Reference          string                 `json:"reference,omitempty"`
	VsReference        map[string]VsRef       `json:"vs_reference,omitempty"`
	EnginesVsReference map[string]EngineVsRef `json:"engines_vs_reference,omitempty"`
}

// SessionBench reports the cold-vs-warm session measurement. WarmSeconds
// is the fastest warm execution; Speedup is ColdSeconds / WarmSeconds.
type SessionBench struct {
	Engine            string  `json:"engine"`
	Executions        int     `json:"executions"`
	Results           int64   `json:"results"`
	ColdSeconds       float64 `json:"cold_seconds"`
	WarmSeconds       float64 `json:"warm_seconds"`
	Speedup           float64 `json:"warm_speedup"`
	ColdTrieBuilds    int64   `json:"cold_trie_builds"`
	WarmTrieBuilds    int64   `json:"warm_trie_builds"`
	WarmTrieCacheHits int64   `json:"warm_trie_cache_hits"`
	StoreBlocks       int64   `json:"store_blocks"`
	StoreBytes        int64   `json:"store_bytes"`
}

// StreamBench reports the streaming-shuffle measurement: wire-level chunk
// counters from the parallel (pipelined) engine runs, the comm/compute
// overlap reclaimed on a shuffle-heavy workload, and the dial count of one
// multi-round run over the persistent TCP transport.
type StreamBench struct {
	// StreamChunks totals the chunk envelopes the parallel engine runs
	// moved (every engine must stream).
	StreamChunks int64 `json:"stream_chunks"`
	// OverlapEngine / OverlapSeconds: the shuffle-heavy run's measured
	// comm/compute overlap (producer+consumer busy time in excess of the
	// exchange wall time). Must be > 0: the pipeline's whole point.
	OverlapEngine  string  `json:"overlap_engine"`
	OverlapSeconds float64 `json:"overlap_seconds"`
	// TCPDials is the number of connections one multi-round BigJoin run
	// dialed over the real TCP transport; TCPDialBound is workers² — the
	// persistent-connection ceiling no matter how many exchanges ran.
	TCPDials     int64 `json:"tcp_dials"`
	TCPDialBound int64 `json:"tcp_dial_bound"`
}

// HybridBench reports the strategy-routing measurement on the
// path-attached-triangle workload: the Hybrid engine's routed plan against
// the pure worst-case-optimal (HCubeJ) and pure binary (SparkSQL)
// strategies, all agreeing on the result exactly.
type HybridBench struct {
	Query             string  `json:"query"`
	Results           int64   `json:"results"`
	RoutedPlan        string  `json:"routed_plan"`
	HybridSeconds     float64 `json:"hybrid_modeled_seconds"`
	LeapfrogSeconds   float64 `json:"pure_leapfrog_modeled_seconds"`
	BinarySeconds     float64 `json:"pure_binary_modeled_seconds"`
	HybridShuffled    int64   `json:"hybrid_tuples_shuffled"`
	LeapfrogShuffled  int64   `json:"pure_leapfrog_tuples_shuffled"`
	BinaryShuffled    int64   `json:"pure_binary_tuples_shuffled"`
	SpeedupVsLeapfrog float64 `json:"speedup_vs_pure_leapfrog"`
	SpeedupVsBinary   float64 `json:"speedup_vs_pure_binary"`
	// WarmOptimizationSeconds is the planning cost of a warm plan-cache
	// hit; the bench fatals unless it is exactly zero.
	WarmOptimizationSeconds float64 `json:"warm_optimization_seconds"`
}

// ServingBench reports the multi-tenant serving measurement: overload
// shedding under a bulk flood against an interactive trickle, cross-session
// store warmth through a Server handle, and concurrent-vs-serialized Exec
// throughput over the session's cluster pool.
type ServingBench struct {
	// Overload scenario: a bulk flood through a one-slot admission gate.
	// The bench fatals unless BulkShed > 0, every rejection is a typed
	// *adj.OverloadError with a positive retry hint, all interactive
	// requests complete, and the worst interactive queue wait stays under
	// the fairness bound.
	BulkSubmitted      int     `json:"bulk_submitted"`
	BulkShed           int     `json:"bulk_shed"`
	BulkCompleted      int     `json:"bulk_completed"`
	InteractiveRuns    int     `json:"interactive_runs"`
	InteractiveMaxWait float64 `json:"interactive_max_wait_seconds"`
	// Cross-session warmth: the second session's first execution over the
	// same graph through a shared Server store must build zero tries.
	CrossSessionTrieBuilds int64 `json:"cross_session_warm_trie_builds"`
	CrossSessionCacheHits  int64 `json:"cross_session_warm_trie_cache_hits"`
	// Throughput: the same warmed executions run back-to-back vs
	// concurrently over the pool. Speedup = serialized / concurrent wall
	// time; recorded, not asserted.
	Concurrency       int     `json:"concurrency"`
	SingleExecSeconds float64 `json:"single_exec_seconds"`
	SerializedSeconds float64 `json:"serialized_seconds"`
	ConcurrentSeconds float64 `json:"concurrent_seconds"`
	ConcurrentSpeedup float64 `json:"concurrent_speedup"`
}

func metricOf(r testing.BenchmarkResult) Metric {
	return Metric{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func bench(fn func(b *testing.B)) Metric {
	return metricOf(testing.Benchmark(fn))
}

func main() {
	var (
		out     = flag.String("out", "BENCH_9.json", "output JSON path")
		ref     = flag.String("ref", "BENCH_8.json", "reference snapshot to compare against (\"\" disables)")
		scale   = flag.Float64("scale", 0.2, "dataset scale for the power-law graph")
		dataset = flag.String("dataset", "LJ", "generated dataset name (power-law: WB, AS, LJ, ...)")
		workers = flag.Int("workers", 8, "cluster size for the engine runs")
		cubes   = flag.Int("cubes", 4, "CubesPerServer for the engine runs (>1 exercises the block cache)")
		quick   = flag.Bool("quick", false, "smoke mode: skip micro-benchmarks, tiny dataset, engines+invariants only")
	)
	flag.Parse()
	if *quick && *scale > 0.05 {
		*scale = 0.05
	}

	valid := false
	for _, n := range adj.DatasetNames() {
		if n == *dataset {
			valid = true
			break
		}
	}
	if !valid {
		fatal(fmt.Errorf("unknown dataset %q (want one of %v)", *dataset, adj.DatasetNames()))
	}
	edges := adj.GenerateGraph(*dataset, *scale)
	q := hypergraph.Get("Q1") // triangle
	rels := q.BindGraph(edges)
	order := q.Attrs()

	snap := Snapshot{
		Generated:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Dataset:        *dataset,
		Scale:          *scale,
		Edges:          edges.Len(),
		Query:          q.Name,
		CubesPerServer: *cubes,
		Benchmarks:     map[string]Metric{},
		EncodedBytes:   map[string]int{},
		Engines:        map[string]EngineRun{},
	}

	fmt.Fprintf(os.Stderr, "dataset %s scale=%g: %d edges\n", *dataset, *scale, edges.Len())

	if !*quick {
		runMicroBenches(&snap, edges, rels, order, *workers)
	}
	// The emit-path benchmark and its invariants run in every mode: the
	// quick CI smoke must still catch a silent regression to per-value
	// allocation.
	benchEmitPipeline(&snap, edges)
	// Fault-free parity runs in every mode: the robustness layer must cost
	// nothing (and change nothing) when no fault fires.
	faultFreeParity(q, rels, *workers, *cubes)
	// Streaming-shuffle invariants (parallel == sequential for every
	// engine, chunks flow, overlap > 0, TCP dials amortized) run in every
	// mode too.
	snap.Streaming = benchStreamingShuffle(q, rels, *dataset, *workers, *cubes)
	// Session invariants (warm trie builds == 0, streamed output ==
	// one-shot baseline byte-for-byte) run in every mode too.
	snap.Session = benchSessionWorkload(q, edges, *workers, *quick)
	// Strategy-routing invariants (the hybrid split beats both pure
	// strategies; a warm plan-cache hit charges zero planning seconds)
	// run in every mode too.
	snap.Hybrid = benchHybridWorkload(*workers, *quick)
	// Serving invariants (bulk shed under flood with typed errors while
	// interactive completes, cross-session warm hits through a Server) run
	// in every mode too.
	snap.Serving = benchServingWorkload(q, edges, *workers, *quick)

	snap.Engines = runEngines(q, rels, *workers, *cubes)
	if *cubes == 1 {
		snap.EnginesCPS1 = snap.Engines
	} else if !*quick {
		// One-cube-per-server runs for the cross-snapshot comparison
		// (earlier snapshots measured this workload); skipped in quick
		// mode, where no comparison is emitted.
		snap.EnginesCPS1 = runEngines(q, rels, *workers, 1)
	}

	// --- Reference comparison: embed before/after ratios for every
	// benchmark key the reference snapshot also measured ---
	if *ref != "" {
		if refData, err := os.ReadFile(*ref); err == nil {
			var refSnap Snapshot
			if err := json.Unmarshal(refData, &refSnap); err != nil {
				fatal(fmt.Errorf("parse reference %s: %w", *ref, err))
			}
			snap.Reference = *ref
			snap.VsReference = map[string]VsRef{}
			for name, m := range snap.Benchmarks {
				rm, ok := refSnap.Benchmarks[name]
				if !ok || rm.NsPerOp <= 0 {
					continue
				}
				snap.VsReference[name] = VsRef{
					RefNsPerOp: rm.NsPerOp,
					NsPerOp:    m.NsPerOp,
					Speedup:    rm.NsPerOp / m.NsPerOp,
				}
			}
			snap.EnginesVsReference = map[string]EngineVsRef{}
			// Compare cps=1 runs against the reference's cps=1 runs; old
			// snapshots (pre-EnginesCPS1) recorded Engines at cps=1.
			refEngines := refSnap.EnginesCPS1
			if len(refEngines) == 0 {
				refEngines = refSnap.Engines
			}
			for name, er := range snap.EnginesCPS1 {
				re, ok := refEngines[name]
				if !ok || re.WallSeconds <= 0 {
					continue
				}
				snap.EnginesVsReference[name] = EngineVsRef{
					RefWallSeconds: re.WallSeconds,
					WallSeconds:    er.WallSeconds,
					Speedup:        re.WallSeconds / er.WallSeconds,
				}
			}
			for name, v := range snap.VsReference {
				fmt.Fprintf(os.Stderr, "vs %s: %-28s %.2fx\n", *ref, name, v.Speedup)
			}
			for name, v := range snap.EnginesVsReference {
				fmt.Fprintf(os.Stderr, "vs %s: engine %-20s %.2fx\n", *ref, name, v.Speedup)
			}
		} else {
			fmt.Fprintf(os.Stderr, "reference %s not found; skipping comparison\n", *ref)
		}
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func runMicroBenches(snap *Snapshot, edges *relation.Relation, rels []*relation.Relation, order []string, workers int) {
	// --- Trie build: the radix builder over the base edge relation as
	// generated, and over a sorted copy (the shape shuffle blocks have) ---
	snap.Benchmarks["trie_build"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trie.Build(edges, []string{"src", "dst"})
		}
	})
	sortedEdges := edges.Clone().Sort()
	snap.Benchmarks["trie_build_sorted"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trie.Build(sortedEdges, []string{"src", "dst"})
		}
	})

	// --- Single-cube Leapfrog: join over pre-built tries, and the full
	// cube pipeline (trie construction + join) the engines actually run ---
	tries := leapfrog.BuildTries(rels, order)
	snap.Benchmarks["leapfrog_triangle"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := leapfrog.Join(tries, order, leapfrog.Options{}); err != nil {
				fatal(err)
			}
		}
	})
	snap.Benchmarks["cube_pipeline"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ts := leapfrog.BuildTries(rels, order)
			if _, err := leapfrog.Join(ts, order, leapfrog.Options{}); err != nil {
				fatal(err)
			}
		}
	})

	// --- Shuffle codec: the batched delta format, one contiguous run per
	// column ---
	encoded := relation.Encode(sortedEdges)
	snap.EncodedBytes["delta"] = len(encoded)
	scratch := make([]byte, 0, len(encoded))
	snap.Benchmarks["shuffle_encode"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch = relation.AppendEncode(scratch[:0], sortedEdges)
		}
	})
	var decodeScratch relation.Relation
	snap.Benchmarks["shuffle_decode"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := relation.DecodeInto(encoded, &decodeScratch); err != nil {
				fatal(err)
			}
		}
	})
	// Composite: one block's full shuffle cost — encode + wire (modeled at
	// the paper's 10 GbE testbed bandwidth) + decode.
	wire := func(nBytes int) float64 {
		return cluster.DefaultNetwork().CommSeconds(int64(nBytes), 1) * 1e9
	}
	snap.Benchmarks["shuffle_roundtrip"] = Metric{
		NsPerOp: snap.Benchmarks["shuffle_encode"].NsPerOp +
			wire(len(encoded)) +
			snap.Benchmarks["shuffle_decode"].NsPerOp,
		AllocsPerOp: snap.Benchmarks["shuffle_encode"].AllocsPerOp +
			snap.Benchmarks["shuffle_decode"].AllocsPerOp,
	}

	// --- Hash partitioner: column-scan hash + single scatter (the
	// BinaryJoin/BigJoin repartition and the sampler's value partitioning) ---
	snap.Benchmarks["partition"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			edges.PartitionBy([]int{0}, workers)
		}
	})

	// --- K-way block-trie merge (the Merge HCube's receiver path) ---
	mergeBlocks := blockTries(edges, 8)
	snap.Benchmarks["trie_merge"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trie.Merge(mergeBlocks)
		}
	})

	// --- Compute phase on a shared-block workload: one worker's trie
	// assembly + Leapfrog over a cps>1-style cube set. "cached" runs the
	// block registry (each block's per-sender parts merged exactly once,
	// single-block cubes alias the shared trie); "rebuild" is the legacy
	// path (every cube re-merges its blocks' sender parts from scratch).
	// This isolates exactly the computation-time win the cache buys. ---
	benchCubeCompute(snap, rels, order)
}

// emitAllocCeiling pins the emit path's allocations per listing run. The
// batched sink allocates O(columns × log results) slices (amortized column
// growth) plus a handful of fixed objects; a regression to per-value
// allocation would scale with the result count (tens of thousands here)
// and blow straight through this.
const emitAllocCeiling = 256

// benchEmitPipeline measures result listing end to end on the emit-bound
// workload the batched sink targets: the 2-path (wedge) listing
// R(a,b) ⋈ S(b,c), whose output volume dwarfs the input (every hub
// contributes deg·deg results) and whose leaf intersections are whole
// adjacency lists — the ring-of-1 runs the sink receives as zero-copy
// slices. Asserts that the emitted-run counters engage and that allocs/op
// stay under emitAllocCeiling — in quick mode too.
func benchEmitPipeline(snap *Snapshot, edges *relation.Relation) {
	r := edges.Clone()
	r.Name, r.Attrs = "R", []string{"a", "b"}
	s := edges.Clone()
	s.Name, s.Attrs = "S", []string{"b", "c"}
	order := []string{"a", "b", "c"}
	tries := leapfrog.BuildTries([]*relation.Relation{r, s}, order)
	runSink := func() (*relation.Relation, leapfrog.Stats) {
		out := relation.New("out", order...)
		st, err := leapfrog.Join(tries, order, leapfrog.Options{Sink: relation.NewColumnWriter(out)})
		if err != nil {
			fatal(err)
		}
		return out, st
	}
	out, st := runSink()
	if int64(out.Len()) != st.Results || (st.Results > 0 && st.EmittedRuns == 0) || st.EmittedValues != st.Results {
		fatal(fmt.Errorf("batched emit did not engage: %d results, %d rows, %d runs, %d values",
			st.Results, out.Len(), st.EmittedRuns, st.EmittedValues))
	}
	sink := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runSink()
		}
	})
	snap.Benchmarks["leapfrog_emit_sink"] = sink
	if sink.AllocsPerOp > emitAllocCeiling {
		fatal(fmt.Errorf("emit sink allocates %d/op, ceiling %d: batched path regressed toward per-value allocation",
			sink.AllocsPerOp, emitAllocCeiling))
	}
	fmt.Fprintf(os.Stderr, "emit listing: sink %.0f ns/op (%d allocs, %d B), runlen %.1f\n",
		sink.NsPerOp, sink.AllocsPerOp, sink.BytesPerOp,
		float64(st.EmittedValues)/float64(max(st.EmittedRuns, 1)))
}

// faultFreeParity asserts the robustness layer is free on the happy path:
// every engine re-run through a quiescent fault-injection transport (zero
// rules armed, but the whole chain engaged — the wrapped exchange stream,
// panic-recovery bookkeeping and retry accounting) must return exactly the plain run's result and report zero
// recovered panics and zero transport retries.
func faultFreeParity(q hypergraph.Query, rels []*relation.Relation, workers, cubes int) {
	for _, name := range engine.EngineNames() {
		run := engine.Engines()[name]
		cfg := engine.Config{NumServers: workers, Samples: 300, Seed: 1, CubesPerServer: cubes}
		plain, err := run(q, rels, cfg)
		if err != nil {
			fatal(fmt.Errorf("fault-free parity %s (plain): %w", name, err))
		}
		cfg.Transport = faultinject.Wrap(cluster.NewLocalTransport(workers), 1)
		wrapped, err := run(q, rels, cfg)
		if err != nil {
			fatal(fmt.Errorf("fault-free parity %s (quiescent injector): %w", name, err))
		}
		if wrapped.Results != plain.Results {
			fatal(fmt.Errorf("fault-free parity %s: quiescent injector changed the result: %d vs %d",
				name, wrapped.Results, plain.Results))
		}
		if wrapped.PanicsRecovered != 0 || wrapped.TransportRetries != 0 {
			fatal(fmt.Errorf("fault-free parity %s: clean run reported panics=%d retries=%d",
				name, wrapped.PanicsRecovered, wrapped.TransportRetries))
		}
	}
	fmt.Fprintf(os.Stderr, "fault-free parity: all engines identical through quiescent fault layer\n")
}

// benchStreamingShuffle enforces the pipelined-shuffle invariants in every
// mode (quick included) and returns the streaming section of the snapshot:
//
//   - every engine run in parallel mode produces sorted output
//     byte-identical to its Config.Sequential run, and moves a nonzero
//     number of chunk envelopes;
//   - a shuffle-heavy run reports comm/compute overlap > 0;
//   - one multi-round BigJoin over the real TCP transport dials at most
//     workers² connections across all its exchanges (persistent
//     connections amortize, nothing re-dials per exchange).
func benchStreamingShuffle(q hypergraph.Query, rels []*relation.Relation, dataset string, workers, cubes int) *StreamBench {
	sb := &StreamBench{TCPDialBound: int64(workers * workers)}
	sortedBytes := func(r *relation.Relation) []byte {
		if r == nil {
			return nil
		}
		return relation.Encode(r.Clone().Sort())
	}
	var wantResults int64 = -1
	for _, name := range engine.AllEngineNames() {
		run := engine.Engines()[name]
		cfg := engine.Config{NumServers: workers, Samples: 300, Seed: 1,
			CubesPerServer: cubes, CollectOutput: true}
		par, err := run(q, rels, cfg)
		if err != nil {
			fatal(fmt.Errorf("streaming %s (parallel): %w", name, err))
		}
		cfg.Sequential = true
		seq, err := run(q, rels, cfg)
		if err != nil {
			fatal(fmt.Errorf("streaming %s (sequential): %w", name, err))
		}
		if par.Results != seq.Results || !bytes.Equal(sortedBytes(par.Output), sortedBytes(seq.Output)) {
			fatal(fmt.Errorf("streaming %s: parallel output differs from sequential (%d vs %d results)",
				name, par.Results, seq.Results))
		}
		if wantResults == -1 {
			wantResults = par.Results
		}
		if par.StreamChunks == 0 {
			fatal(fmt.Errorf("streaming %s: parallel run moved zero chunks", name))
		}
		sb.StreamChunks += par.StreamChunks
	}

	// Overlap on a shuffle-heavy workload: the Push-shuffle HCubeJ over a
	// floor-scaled graph (per-tuple envelopes, consumers depositing as
	// chunks land). Overlap is producer+consumer busy time in excess of
	// exchange wall time — real wall-clock concurrency, which a
	// single-processor host cannot exhibit (one core serializes every
	// goroutine, so elapsed always covers the sum of busy times). Enforce
	// the overlap > 0 invariant only where the hardware can express it;
	// allow a few scheduling-fluke retries before declaring the pipeline
	// dead.
	sb.OverlapEngine = "HCubeJ"
	heavy := adj.GenerateGraph(dataset, 0.2)
	heavyRels := q.BindGraph(heavy)
	for attempt := 0; attempt < 3 && sb.OverlapSeconds == 0; attempt++ {
		rep, err := engine.RunHCubeJ(q, heavyRels, engine.Config{
			NumServers: workers, Samples: 300, Seed: 1, CubesPerServer: cubes})
		if err != nil {
			fatal(fmt.Errorf("streaming overlap run: %w", err))
		}
		sb.OverlapSeconds = rep.OverlapSeconds
	}
	if sb.OverlapSeconds <= 0 {
		if runtime.GOMAXPROCS(0) > 1 {
			fatal(fmt.Errorf("streaming: shuffle-heavy %s run reclaimed zero comm/compute overlap", sb.OverlapEngine))
		}
		fmt.Fprintf(os.Stderr, "streaming: single-processor host (GOMAXPROCS=1) — comm/compute overlap unmeasurable, skipping the overlap > 0 invariant\n")
	}

	// Dial amortization over the real wire: one multi-round BigJoin run
	// (many exchanges) must dial at most workers² persistent connections.
	tcp, err := cluster.NewTCPTransport(workers)
	if err != nil {
		fatal(fmt.Errorf("streaming: tcp transport: %w", err))
	}
	rep, err := engine.RunBigJoin(q, rels, engine.Config{NumServers: workers, Samples: 300, Seed: 1,
		CubesPerServer: cubes, Transport: tcp})
	if err != nil {
		fatal(fmt.Errorf("streaming BigJoin over TCP: %w", err))
	}
	if rep.Results != wantResults {
		fatal(fmt.Errorf("streaming BigJoin over TCP: %d results, local runs found %d", rep.Results, wantResults))
	}
	sb.TCPDials = rep.TransportDials
	if sb.TCPDials == 0 || sb.TCPDials > sb.TCPDialBound {
		fatal(fmt.Errorf("streaming BigJoin over TCP dialed %d connections, want in (0, %d]: persistent connections not amortizing",
			sb.TCPDials, sb.TCPDialBound))
	}
	fmt.Fprintf(os.Stderr, "streaming: %d chunks, overlap %.4fs (%s), tcp dials %d/%d\n",
		sb.StreamChunks, sb.OverlapSeconds, sb.OverlapEngine, sb.TCPDials, sb.TCPDialBound)
	return sb
}

// benchSessionWorkload measures the Session repeated-query path — the
// workload the session trie store exists for — and enforces its
// correctness invariants in every mode:
//
//   - the warm execution performs zero shuffle-side trie builds and is
//     served from the store (TrieCacheHits > 0, zero tuples shuffled);
//   - results streamed from the session (cold and warm) are byte-for-byte
//     identical to the one-shot RunGraph baseline.
//
// Timing runs count-only on a fresh session (the first execution is the
// cold measurement, the rest warm); the collected-output runs validate the
// byte equality separately so materialization cost doesn't blur the
// speedup.
func benchSessionWorkload(q hypergraph.Query, edges *relation.Relation, workers int, quick bool) *SessionBench {
	opts := adj.Options{Workers: workers, Samples: 300, Seed: 1}

	// --- Correctness: streamed session output == one-shot baseline ---
	oneshotOpts := opts
	oneshotOpts.CollectOutput = true
	base, err := adj.RunGraph("ADJ", q, edges, oneshotOpts)
	if err != nil {
		fatal(err)
	}
	baseBytes := relation.Encode(base.Output)
	checkSess, err := adj.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer checkSess.Close()
	if err := checkSess.Register("edges", edges); err != nil {
		fatal(err)
	}
	pq, err := checkSess.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		fatal(err)
	}
	for exec := 0; exec < 2; exec++ {
		res, err := pq.Exec(context.Background())
		if err != nil {
			fatal(err)
		}
		rep := res.Report()
		if res.Count() != base.Results {
			fatal(fmt.Errorf("session exec %d: %d results, one-shot %d", exec, res.Count(), base.Results))
		}
		// Reconstruct the relation from the streamed runs and compare the
		// encoded bytes against the one-shot baseline.
		streamed := relation.New("out", res.Attrs()...)
		cw := relation.NewColumnWriter(streamed)
		for {
			prefix, vals, ok := res.NextRun()
			if !ok {
				break
			}
			cw.BeginRun(prefix)
			cw.AppendRun(vals)
		}
		if got := relation.Encode(streamed); !bytes.Equal(got, baseBytes) {
			fatal(fmt.Errorf("session exec %d: streamed results differ from one-shot baseline (%d vs %d bytes)",
				exec, len(got), len(baseBytes)))
		}
		if exec == 1 {
			if rep.TrieBuilds != 0 {
				fatal(fmt.Errorf("warm session exec built %d tries, want 0", rep.TrieBuilds))
			}
			if rep.TrieCacheHits == 0 {
				fatal(fmt.Errorf("warm session exec: no trie cache hits"))
			}
			// The HCube shuffle itself is skipped warm; a plan with
			// pre-computed bags (marked "*") legitimately still shuffles
			// the bag-materializing joins each run.
			if rep.TuplesShuffled != 0 && !strings.Contains(rep.Plan, "*") {
				fatal(fmt.Errorf("warm session exec shuffled %d tuples, want 0", rep.TuplesShuffled))
			}
		}
	}

	// --- Timing: cold vs warm, count-only, fresh session ---
	execs := 4
	if quick {
		execs = 2
	}
	sess, err := adj.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	if err := sess.Register("edges", edges); err != nil {
		fatal(err)
	}
	pq, err = sess.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		fatal(err)
	}
	sb := &SessionBench{Engine: "ADJ", Executions: execs}
	for exec := 0; exec < execs; exec++ {
		t0 := time.Now()
		res, err := pq.Exec(context.Background(), adj.CountOnly())
		if err != nil {
			fatal(err)
		}
		wall := time.Since(t0).Seconds()
		rep := res.Report()
		sb.Results = res.Count()
		if exec == 0 {
			sb.ColdSeconds = wall
			sb.ColdTrieBuilds = rep.TrieBuilds
			continue
		}
		if rep.TrieBuilds != 0 {
			fatal(fmt.Errorf("warm timing exec %d built %d tries, want 0", exec, rep.TrieBuilds))
		}
		if sb.WarmSeconds == 0 || wall < sb.WarmSeconds {
			sb.WarmSeconds = wall
		}
		sb.WarmTrieBuilds += rep.TrieBuilds
		sb.WarmTrieCacheHits += rep.TrieCacheHits
	}
	if sb.WarmSeconds > 0 {
		sb.Speedup = sb.ColdSeconds / sb.WarmSeconds
	}
	st := sess.TrieStoreStats()
	sb.StoreBlocks = st.Blocks
	sb.StoreBytes = st.Bytes
	fmt.Fprintf(os.Stderr,
		"session: cold %.4fs (builds=%d) warm %.4fs (builds=0, hits=%d) — %.2fx, store %d blocks / %d bytes\n",
		sb.ColdSeconds, sb.ColdTrieBuilds, sb.WarmSeconds, sb.WarmTrieCacheHits, sb.Speedup,
		sb.StoreBlocks, sb.StoreBytes)
	return sb
}

// hybridJoinWorkload builds the path-attached-triangle instance the hybrid
// router splits: R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c) is a large random-graph
// cyclic core, P1(c,d) is a small path relation selective on the
// attachment attribute c (few distinct values), and P2(d,e) is a large far
// path relation that a pure HCube shuffle must replicate across servers
// but the hybrid tail merely hash-partitions.
func hybridJoinWorkload(scale int) (hypergraph.Query, adj.Database) {
	rng := mrand.New(mrand.NewSource(11))
	nodes := int64(scale / 2)
	tri := relation.New("E", "src", "dst")
	for i := 0; i < 10*scale; i++ {
		tri.Append(relation.Value(rng.Int63n(nodes)), relation.Value(rng.Int63n(nodes)))
	}
	q := hypergraph.Query{Name: "Qhybrid", Atoms: []hypergraph.Atom{
		{Name: "R1", Attrs: []string{"a", "b"}},
		{Name: "R2", Attrs: []string{"b", "c"}},
		{Name: "R3", Attrs: []string{"a", "c"}},
		{Name: "P1", Attrs: []string{"c", "d"}},
		{Name: "P2", Attrs: []string{"d", "e"}},
	}}
	p1 := relation.New("P1", "c", "d")
	p2 := relation.New("P2", "d", "e")
	domain := int64(50 * scale)
	for i := 0; i < scale; i++ {
		p1.Append(relation.Value(rng.Intn(40)), relation.Value(10000+rng.Int63n(domain)))
	}
	for i := 0; i < 40*scale; i++ {
		p2.Append(relation.Value(10000+rng.Int63n(domain)), relation.Value(rng.Int63n(8000)))
	}
	// Set semantics: random draws collide, and duplicate input tuples
	// would make trie-based and hash-join-based engines disagree on
	// output multiplicity.
	tri.SortDedup()
	p1.SortDedup()
	p2.SortDedup()
	return q, adj.Database{"R1": tri, "R2": tri, "R3": tri, "P1": p1, "P2": p2}
}

// benchHybridWorkload measures selectivity-driven strategy routing and
// enforces its invariants in every mode:
//
//   - the router picks the split plan (semijoin-reduced core + ear hash
//     joins) on this workload, and its modeled cost beats both the pure
//     leapfrog (HCubeJ) and the pure binary (SparkSQL) strategies;
//   - all three agree on the result count exactly;
//   - a warm plan-cache hit reports zero planning/sampling seconds.
func benchHybridWorkload(workers int, quick bool) *HybridBench {
	scale := 2000
	if quick {
		scale = 1000
	}
	q, db := hybridJoinWorkload(scale)
	opts := adj.Options{Workers: workers, Samples: 300, Seed: 7}

	sess, err := adj.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	if err := sess.RegisterDatabase(db); err != nil {
		fatal(err)
	}
	pq, err := sess.Prepare("Hybrid", q)
	if err != nil {
		fatal(err)
	}
	if !strings.Contains(pq.Explain(), "Semijoin") {
		fatal(fmt.Errorf("hybrid router did not pick the split plan:\n%s", pq.Explain()))
	}

	var hybrid adj.Report
	for exec := 0; exec < 2; exec++ {
		res, err := pq.Exec(context.Background(), adj.CountOnly())
		if err != nil {
			fatal(err)
		}
		hybrid = res.Report()
		if exec > 0 && hybrid.Optimization != 0 {
			fatal(fmt.Errorf("warm hybrid exec charged %.6fs planning, want 0", hybrid.Optimization))
		}
	}
	hb := &HybridBench{
		Query:                   q.Name,
		Results:                 hybrid.Results,
		RoutedPlan:              hybrid.Plan,
		HybridSeconds:           hybrid.Total(),
		HybridShuffled:          hybrid.TuplesShuffled,
		WarmOptimizationSeconds: hybrid.Optimization,
	}
	pures := []struct {
		engine  string
		seconds *float64
		shuf    *int64
		speedup *float64
	}{
		{"HCubeJ", &hb.LeapfrogSeconds, &hb.LeapfrogShuffled, &hb.SpeedupVsLeapfrog},
		{"SparkSQL", &hb.BinarySeconds, &hb.BinaryShuffled, &hb.SpeedupVsBinary},
	}
	for _, p := range pures {
		rep, err := adj.Run(p.engine, q, db, opts)
		if err != nil {
			fatal(fmt.Errorf("hybrid workload %s: %w", p.engine, err))
		}
		if rep.Results != hb.Results {
			fatal(fmt.Errorf("hybrid workload: %s disagrees: %d vs %d", p.engine, rep.Results, hb.Results))
		}
		*p.seconds = rep.Total()
		*p.shuf = rep.TuplesShuffled
		*p.speedup = rep.Total() / hb.HybridSeconds
		if rep.Total() <= hb.HybridSeconds {
			fatal(fmt.Errorf("hybrid (%.4fs) did not beat %s (%.4fs)", hb.HybridSeconds, p.engine, rep.Total()))
		}
	}
	fmt.Fprintf(os.Stderr,
		"hybrid routing: %d results, %.4fs vs leapfrog %.4fs (%.1fx) / binary %.4fs (%.1fx), warm planning 0s\n",
		hb.Results, hb.HybridSeconds, hb.LeapfrogSeconds, hb.SpeedupVsLeapfrog,
		hb.BinarySeconds, hb.SpeedupVsBinary)
	return hb
}

// benchServingWorkload drives the multi-tenant serving tier and enforces
// its invariants in every mode:
//
//   - a bulk flood through a one-slot admission gate must shed (bulk
//     beyond the shed watermark rejected with a typed *adj.OverloadError
//     carrying a positive retry hint) while the concurrent interactive
//     trickle completes in full, its worst queue wait bounded by a
//     generous multiple of a single execution — bulk cannot starve
//     interactive;
//   - the storm leaves the session fully healthy: the next execution is
//     warm (zero trie builds);
//   - two sessions opened through one Server warm each other — the second
//     session's first execution over the same graph adopts the first's
//     tries (zero builds, nonzero store hits).
//
// It also times N warmed executions back-to-back and concurrently over
// the cluster pool; the ratio is recorded, not asserted.
func benchServingWorkload(q hypergraph.Query, edges *relation.Relation, workers int, quick bool) *ServingBench {
	sb := &ServingBench{}

	// --- Overload: bulk flood vs interactive trickle through one slot ---
	sess, err := adj.Open(adj.Options{Workers: workers, Samples: 300, Seed: 1,
		Admission: adj.AdmissionConfig{MaxConcurrent: 1, MaxQueue: 16, ShedQueue: 1}})
	if err != nil {
		fatal(err)
	}
	if err := sess.Register("edges", edges); err != nil {
		fatal(err)
	}
	pq, err := sess.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		fatal(err)
	}
	// Warm the store and take the single-execution baseline the fairness
	// bound scales from.
	t0 := time.Now()
	if _, err := pq.Exec(context.Background(), adj.CountOnly()); err != nil {
		fatal(err)
	}
	sb.SingleExecSeconds = time.Since(t0).Seconds()

	bulkN, interN := 24, 6
	if quick {
		bulkN, interN = 12, 4
	}
	sb.BulkSubmitted, sb.InteractiveRuns = bulkN, interN
	var (
		wg        sync.WaitGroup
		shed      atomic.Int64
		completed atomic.Int64
		badErr    atomic.Value
		maxWaitNs atomic.Int64
	)
	for i := 0; i < bulkN; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pq.Exec(context.Background(), adj.CountOnly(),
				adj.WithClass(adj.Bulk), adj.WithTenant("bulk"))
			switch {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, adj.ErrOverloaded):
				var oe *adj.OverloadError
				if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
					badErr.Store(fmt.Errorf("serving: shed without a usable retry hint: %w", err))
				}
				shed.Add(1)
			default:
				badErr.Store(fmt.Errorf("serving: bulk exec failed with a non-overload error: %w", err))
			}
		}()
	}
	for i := 0; i < interN; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pq.Exec(context.Background(), adj.CountOnly(), adj.WithTenant("inter"))
			if err != nil {
				badErr.Store(fmt.Errorf("serving: interactive exec rejected during bulk flood: %w", err))
				return
			}
			ns := int64(res.QueueSeconds() * float64(time.Second))
			for {
				cur := maxWaitNs.Load()
				if ns <= cur || maxWaitNs.CompareAndSwap(cur, ns) {
					break
				}
			}
		}()
	}
	wg.Wait()
	if e := badErr.Load(); e != nil {
		fatal(e.(error))
	}
	sb.BulkShed = int(shed.Load())
	sb.BulkCompleted = int(completed.Load())
	sb.InteractiveMaxWait = time.Duration(maxWaitNs.Load()).Seconds()
	if sb.BulkShed == 0 {
		fatal(fmt.Errorf("serving: bulk flood of %d through a one-slot gate shed nothing", bulkN))
	}
	// Fairness: an interactive request waits behind at most the in-flight
	// execution, one queued bulk (the shed watermark rejects the rest) and
	// the other interactives — bound the worst wait by a generous multiple
	// of that many single executions, floored to absorb scheduler noise.
	bound := float64(interN+2) * sb.SingleExecSeconds * 10
	if bound < 1.0 {
		bound = 1.0
	}
	if sb.InteractiveMaxWait > bound {
		fatal(fmt.Errorf("serving: interactive wait %.4fs exceeds fairness bound %.4fs",
			sb.InteractiveMaxWait, bound))
	}
	// Post-storm health: the pool must come back warm and clean.
	res, err := pq.Exec(context.Background(), adj.CountOnly())
	if err != nil {
		fatal(fmt.Errorf("serving: post-storm exec: %w", err))
	}
	if rep := res.Report(); rep.TrieBuilds != 0 {
		fatal(fmt.Errorf("serving: post-storm exec built %d tries, want 0 (pool unhealthy)", rep.TrieBuilds))
	}
	if err := sess.Close(); err != nil {
		fatal(err)
	}

	// --- Cross-session warmth through a Server ---
	srv := adj.NewServer(adj.ServerOptions{Admission: adj.AdmissionConfig{MaxConcurrent: 2}})
	sOpts := adj.Options{Workers: workers, Samples: 300, Seed: 1}
	sA, err := srv.OpenShared(sOpts)
	if err != nil {
		fatal(err)
	}
	if err := sA.Register("edges", edges); err != nil {
		fatal(err)
	}
	pqA, err := sA.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		fatal(err)
	}
	resA, err := pqA.Exec(context.Background(), adj.CountOnly())
	if err != nil {
		fatal(err)
	}
	if resA.Report().TrieBuilds == 0 {
		fatal(fmt.Errorf("serving: session A's cold run built no tries — warmth claim would be vacuous"))
	}
	sB, err := srv.OpenShared(sOpts)
	if err != nil {
		fatal(err)
	}
	if err := sB.Register("edges", edges); err != nil {
		fatal(err)
	}
	pqB, err := sB.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		fatal(err)
	}
	resB, err := pqB.Exec(context.Background(), adj.CountOnly())
	if err != nil {
		fatal(err)
	}
	repB := resB.Report()
	sb.CrossSessionTrieBuilds = repB.TrieBuilds
	sb.CrossSessionCacheHits = repB.TrieCacheHits
	if sb.CrossSessionTrieBuilds != 0 || sb.CrossSessionCacheHits == 0 {
		fatal(fmt.Errorf("serving: session B's first exec built %d tries with %d store hits, want 0 builds and > 0 hits (shared store not warming)",
			sb.CrossSessionTrieBuilds, sb.CrossSessionCacheHits))
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}

	// --- Throughput: serialized vs concurrent over the cluster pool ---
	conc := runtime.GOMAXPROCS(0)
	if conc < 2 {
		conc = 2
	}
	if conc > 4 {
		conc = 4
	}
	sb.Concurrency = conc
	psess, err := adj.Open(adj.Options{Workers: workers, Samples: 300, Seed: 1, Concurrency: conc})
	if err != nil {
		fatal(err)
	}
	defer psess.Close()
	if err := psess.Register("edges", edges); err != nil {
		fatal(err)
	}
	ppq, err := psess.PrepareGraph("ADJ", q, "edges")
	if err != nil {
		fatal(err)
	}
	if _, err := ppq.Exec(context.Background(), adj.CountOnly()); err != nil {
		fatal(err)
	}
	n := 4 * conc
	if quick {
		n = 2 * conc
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := ppq.Exec(context.Background(), adj.CountOnly()); err != nil {
			fatal(fmt.Errorf("serving: serialized exec %d: %w", i, err))
		}
	}
	sb.SerializedSeconds = time.Since(t0).Seconds()
	var terr atomic.Value
	t0 = time.Now()
	wg = sync.WaitGroup{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := ppq.Exec(context.Background(), adj.CountOnly()); err != nil {
				terr.Store(fmt.Errorf("serving: concurrent exec %d: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	sb.ConcurrentSeconds = time.Since(t0).Seconds()
	if e := terr.Load(); e != nil {
		fatal(e.(error))
	}
	if sb.ConcurrentSeconds > 0 {
		sb.ConcurrentSpeedup = sb.SerializedSeconds / sb.ConcurrentSeconds
	}
	fmt.Fprintf(os.Stderr,
		"serving: flood %d bulk -> %d shed / %d ran, %d interactive all ran (max wait %.4fs), cross-session warm builds=%d hits=%d, %d execs serialized %.4fs vs concurrent(%d) %.4fs — %.2fx\n",
		sb.BulkSubmitted, sb.BulkShed, sb.BulkCompleted, sb.InteractiveRuns, sb.InteractiveMaxWait,
		sb.CrossSessionTrieBuilds, sb.CrossSessionCacheHits,
		n, sb.SerializedSeconds, conc, sb.ConcurrentSeconds, sb.ConcurrentSpeedup)
	return sb
}

// benchCubeCompute sets up a triangle shuffle's receiver state by hand:
// shares (2,2,2) over the global order give 8 cubes; each relation splits
// into 4 blocks of 8 per-sender trie parts, every block shared by 2 cubes.
func benchCubeCompute(snap *Snapshot, rels []*relation.Relation, order []string) {
	const senders = 8
	s := hcube.Shares{Attrs: order, P: []int{2, 2, 2}}
	attrsOf := map[string][]string{}
	blockParts := map[blockcache.Key][]*trie.Trie{}
	numCubes := s.NumCubes()
	cubeKeys := make([]map[string][]blockcache.Key, numCubes)
	for i := range cubeKeys {
		cubeKeys[i] = map[string][]blockcache.Key{}
	}
	for _, r := range rels {
		relPos := s.RelPositions(r.Attrs)
		attrs := sortedAttrs(r, order)
		attrsOf[r.Name] = attrs
		nb := s.NumBlocks(relPos)
		parts := make([][]*relation.Relation, nb)
		for sig := range parts {
			parts[sig] = make([]*relation.Relation, senders)
			for sd := range parts[sig] {
				parts[sig][sd] = relation.New(r.Name, r.Attrs...)
			}
		}
		for i, n := 0, r.Len(); i < n; i++ {
			t := r.Tuple(i)
			parts[s.BlockSig(relPos, t)][i%senders].AppendTuple(t)
		}
		for sig := 0; sig < nb; sig++ {
			key := blockcache.Key{Rel: r.Name, Sig: sig}
			for _, sp := range parts[sig] {
				if sp.Len() > 0 {
					sp.Sort()
					blockParts[key] = append(blockParts[key], trie.Build(sp, attrs))
				}
			}
			if len(blockParts[key]) == 0 {
				continue
			}
			for _, cube := range s.BlockCubes(relPos, sig) {
				cubeKeys[cube][r.Name] = append(cubeKeys[cube][r.Name], key)
			}
		}
	}
	rebuild := func() int64 {
		var total int64
		for cube := 0; cube < numCubes; cube++ {
			tries := make([]*trie.Trie, 0, len(rels))
			for _, r := range rels {
				var ps []*trie.Trie
				for _, k := range cubeKeys[cube][r.Name] {
					ps = append(ps, blockParts[k]...)
				}
				tries = append(tries, trie.Merge(ps))
			}
			st, err := leapfrog.Join(tries, order, leapfrog.Options{})
			if err != nil {
				fatal(err)
			}
			total += st.Results
		}
		return total
	}
	cached := func() int64 {
		reg := blockcache.New()
		for key, ps := range blockParts {
			for _, t := range ps {
				reg.DepositTrie(key, attrsOf[key.Rel], t)
			}
		}
		for cube := 0; cube < numCubes; cube++ {
			for rel, ks := range cubeKeys[cube] {
				for _, k := range ks {
					reg.BindCube(cube, rel, k)
				}
			}
		}
		var total int64
		for cube := 0; cube < numCubes; cube++ {
			tries := make([]*trie.Trie, 0, len(rels))
			for _, r := range rels {
				tr, ok := reg.CubeTrie(cube, r.Name)
				if !ok {
					tr = trie.Build(relation.New(r.Name, r.Attrs...), attrsOf[r.Name])
				}
				tries = append(tries, tr)
			}
			st, err := leapfrog.Join(tries, order, leapfrog.Options{})
			if err != nil {
				fatal(err)
			}
			total += st.Results
		}
		return total
	}
	if a, b := cached(), rebuild(); a != b {
		fatal(fmt.Errorf("cube compute paths disagree: cached=%d rebuild=%d", a, b))
	}
	snap.Benchmarks["cube_compute_cached"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cached()
		}
	})
	snap.Benchmarks["cube_compute_rebuild"] = bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rebuild()
		}
	})
}

// runEngines measures the five engines end-to-end at the given cube
// fan-out, records the block-cache counters, and enforces the cache
// invariants: engines agree on the result count and every (relation,
// block) trie is built exactly once per worker (builds == blocks).
func runEngines(q hypergraph.Query, rels []*relation.Relation, workers, cubes int) map[string]EngineRun {
	out := map[string]EngineRun{}
	var wantResults int64 = -1
	for _, name := range engine.EngineNames() {
		run := engine.Engines()[name]
		cfg := engine.Config{NumServers: workers, Samples: 300, Seed: 1, CubesPerServer: cubes}
		t0 := time.Now()
		rep, err := run(q, rels, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if rep.Failed {
			fatal(fmt.Errorf("%s failed: %s", name, rep.FailReason))
		}
		if wantResults == -1 {
			wantResults = rep.Results
		} else if rep.Results != wantResults {
			fatal(fmt.Errorf("%s: results=%d, other engines found %d", name, rep.Results, wantResults))
		}
		if rep.CacheBlocks > 0 && rep.TrieBuilds != rep.CacheBlocks {
			fatal(fmt.Errorf("%s: %d trie builds for %d cached blocks; each block must be built exactly once",
				name, rep.TrieBuilds, rep.CacheBlocks))
		}
		out[name] = EngineRun{
			Results:        rep.Results,
			TuplesShuffled: rep.TuplesShuffled,
			BytesShuffled:  rep.BytesShuffled,
			TotalSeconds:   rep.Total(),
			WallSeconds:    time.Since(t0).Seconds(),
			CacheBlocks:    rep.CacheBlocks,
			TrieBuilds:     rep.TrieBuilds,
			TrieCacheHits:  rep.TrieCacheHits,
		}
		fmt.Fprintf(os.Stderr, "%-12s cps=%d results=%d tuples=%d bytes=%d blocks=%d builds=%d hits=%d\n",
			name, cubes, rep.Results, rep.TuplesShuffled, rep.BytesShuffled,
			rep.CacheBlocks, rep.TrieBuilds, rep.TrieCacheHits)
	}
	return out
}

// blockTries splits the edge relation into n sorted sub-blocks and builds
// one trie per block — the shape trie.Merge sees at a Merge-shuffle
// receiver.
func blockTries(edges *relation.Relation, n int) []*trie.Trie {
	parts := make([]*relation.Relation, n)
	for i := range parts {
		parts[i] = relation.New("B", "src", "dst")
	}
	for i, m := 0, edges.Len(); i < m; i++ {
		parts[i%n].AppendTuple(edges.Tuple(i))
	}
	out := make([]*trie.Trie, n)
	for i, p := range parts {
		out[i] = trie.Build(p, []string{"src", "dst"})
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// sortedAttrs returns r's attributes ordered by global-order position.
func sortedAttrs(r *relation.Relation, order []string) []string {
	pos := make(map[string]int, len(order))
	for i, a := range order {
		pos[a] = i
	}
	attrs := append([]string(nil), r.Attrs...)
	sortslice.Slice(attrs, func(x, y int) bool { return pos[attrs[x]] < pos[attrs[y]] })
	return attrs
}
