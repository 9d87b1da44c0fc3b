// Package adj is a Go implementation of ADJ — Adaptive Distributed Join —
// from "Fast Distributed Complex Join Processing" (Zhang, Qiao, Yu, Cheng;
// ICDE 2021, arXiv:2102.13370).
//
// ADJ evaluates complex natural-join queries (cyclic subgraph patterns,
// FK–FK joins) on a cluster in one communication round: an HCube shuffle
// partitions the join's output space across servers, and a Leapfrog
// worst-case-optimal join evaluates each partition locally. The system's
// contribution is *co-optimization*: instead of minimizing communication
// alone (HCubeJ), ADJ's optimizer may pre-compute selected bags of a
// generalized hypertree decomposition — trading a little communication and
// pre-computing for a large cut in Leapfrog computation — choosing the plan
// that minimizes the combined cost, with cardinalities estimated by the
// paper's sampler with a Chernoff–Hoeffding guarantee.
//
// # Quick start
//
// The serving shape is a Session: a long-lived resident worker pool that
// answers a stream of queries. Relations are registered once (computing
// content signatures), queries are prepared once (paying sampling and plan
// selection up front), and every execution after the first reuses the
// session's block-trie store — a repeated query skips the shuffle-side trie
// builds entirely:
//
//	sess, _ := adj.Open(adj.Options{Workers: 8, Samples: 500, Seed: 1})
//	defer sess.Close()
//	sess.Register("edges", adj.GenerateGraph("LJ", 0.1))
//
//	pq, _ := sess.PrepareGraph("ADJ", adj.CatalogQuery("Q1"), "edges")
//	res, _ := pq.Exec(context.Background())        // cold: shuffle + build
//	fmt.Println(res.Count())
//
//	res, _ = pq.Exec(context.Background())         // warm: TrieBuilds == 0
//	for {                                          // stream run-aware results
//		prefix, vals, ok := res.NextRun()
//		if !ok {
//			break
//		}
//		_ = prefix // shared binding of all but the last attribute
//		_ = vals   // the run's last-attribute values (zero-copy)
//	}
//
// Ad-hoc databases work the same way:
//
//	q, _ := adj.ParseQuery("Q :- R(a,b) ⋈ S(b,c) ⋈ T(a,c)")
//	sess.Register("R", r)
//	sess.Register("S", s)
//	sess.Register("T", t)
//	pq, _ := sess.Prepare("ADJ", q)
//
// Prepare → Exec under the caller's context is the only way a query runs:
// every execution is cancellable, and a query answered once pays the same
// planning it would amortize over many (pq.PlanSeconds reports it;
// pq.Explain renders the physical plan without executing it).
//
// The baselines the paper compares against (SparkSQL-style binary joins,
// BigJoin, HCubeJ, HCubeJ+Cache) and the Hybrid planner are engine names
// under the same Session API (AllEngineNames), and cmd/experiments
// regenerates every figure and table of the evaluation.
package adj

import (
	"context"
	"fmt"
	"slices"

	"adj/internal/admission"
	"adj/internal/cluster"
	"adj/internal/dataset"
	"adj/internal/engine"
	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// Value is the attribute domain (int64; graph vertex ids).
type Value = relation.Value

// Relation is a named multiset of fixed-arity tuples.
type Relation = relation.Relation

// Tuple is one row of a relation.
type Tuple = relation.Tuple

// Query is a natural join query over named relations.
type Query = hypergraph.Query

// Atom is one relation occurrence in a query.
type Atom = hypergraph.Atom

// Database maps relation names to relations for Query.Bind.
type Database = hypergraph.Database

// Report is an engine run's outcome: result count, cost breakdown
// (optimization / pre-computing / communication / computation seconds),
// shuffle counters, block-trie cache counters, fault counters
// (PanicsRecovered, TransportRetries, Retried) and the chosen plan.
type Report = engine.Report

// Typed failure classes of an execution, re-exported from the cluster
// runtime so callers classify errors with errors.Is without importing
// internal packages:
//
//   - ErrWorkerPanic: a worker (or the coordinator) panicked; the panic was
//     recovered into the error (errors.As a *cluster.WorkerPanicError for
//     worker ID, phase and stack).
//   - ErrTransport: the exchange transport failed — retries exhausted, a
//     connection died, or a payload arrived corrupt.
//   - ErrCanceled: the execution's context was cancelled (this is
//     context.Canceled itself).
//   - ErrOverloaded: the serving tier shed or refused the request before
//     it ran (admission queue full, bulk shed under pressure, or a tenant
//     over budget). errors.As a *OverloadError for the reason, the queue
//     depth and a retry-after hint; retrying after the hint is always
//     safe because the execution never started.
var (
	ErrWorkerPanic = cluster.ErrWorkerPanic
	ErrTransport   = cluster.ErrTransport
	ErrCanceled    = cluster.ErrCanceled
	ErrOverloaded  = cluster.ErrOverloaded
)

// OverloadError is the typed admission rejection behind ErrOverloaded.
type OverloadError = cluster.OverloadError

// Class is an execution's admission class (see WithClass).
type Class = admission.Class

// Admission classes: Interactive executions are latency-sensitive —
// granted before Bulk and shed only when the queue is hard-full; Bulk
// executions are throughput work, shed first under overload.
const (
	Interactive = admission.Interactive
	Bulk        = admission.Bulk
)

// AdmissionConfig tunes a session's (or server's) admission controller:
// concurrency limit, queue bound, shed watermarks, tenant budgets. Its
// MaxConcurrent also sizes the session's cluster pool. The zero value
// takes the controller's defaults.
type AdmissionConfig = admission.Config

// AdmissionStats snapshots an admission controller (see
// Session.AdmissionStats and Server.Stats).
type AdmissionStats = admission.Stats

// TenantStats is one tenant's decayed budget consumption.
type TenantStats = admission.TenantStats

// IsTransient reports whether an execution error is worth retrying on the
// same session: transport failures are transient, panics and cancellations
// are not. Options.Retry applies exactly this test.
func IsTransient(err error) bool { return cluster.IsTransient(err) }

// Options configures a Session.
type Options struct {
	// Workers is the simulated cluster size (default 4; the paper uses up
	// to 28). A Session's worker pool is created once at Open.
	Workers int
	// Samples per cardinality estimation (default 1000).
	Samples int
	// Seed makes sampling deterministic.
	Seed int64
	// Budget caps intermediate work; exceeded runs return Failed reports
	// (the paper's 12-hour-timeout analogue). 0 = unlimited.
	Budget int64
	// MemoryPerServer bounds HCube load per server in tuples (0 = unbounded).
	MemoryPerServer int64
	// TrieStoreBytes bounds the session-resident block-trie store, the
	// content-keyed cache that lets a repeated query skip shuffle-side trie
	// builds. 0 picks the default (256 MiB); negative disables cross-query
	// reuse entirely. Least-recently-used blocks are evicted when the
	// budget overflows.
	TrieStoreBytes int64
	// Retry opts executions into fail-safe re-running: when an Exec fails
	// with a transient transport error (IsTransient — dial/write
	// exhaustion, a dropped connection, a corrupt payload), the session
	// resets its workers and repeats the execution once; the re-run's
	// Report is marked Retried. Worker panics, cancellations and budget
	// failures are never retried.
	Retry bool
	// Admission tunes the session's admission controller (concurrency
	// limit, queue bound, shed watermarks, tenant budgets); zero-value
	// fields take the controller's defaults. Its concurrency limit is also
	// the session's resident cluster-pool size — how many Exec calls run
	// truly in parallel, each borrowing one pool cluster exclusively; the
	// trie store is shared across the pool. Ignored by Server.OpenShared
	// sessions, which share the server's controller and size their pool
	// by its limit.
	Admission AdmissionConfig
}

// toConfig is the engine configuration of one planning pass or execution
// under ctx.
func (o Options) toConfig(ctx context.Context) engine.Config {
	return engine.Config{
		NumServers:      o.Workers,
		Samples:         o.Samples,
		Seed:            o.Seed,
		Budget:          o.Budget,
		MemoryPerServer: o.MemoryPerServer,
		Ctx:             ctx,
	}
}

// checkEngine rejects engine names the registry does not list.
func checkEngine(name string) error {
	if !slices.Contains(AllEngineNames(), name) {
		return fmt.Errorf("adj: unknown engine %q (want one of %v)", name, AllEngineNames())
	}
	return nil
}

// EngineNames lists the paper's engines: "ADJ", "HCubeJ", "HCubeJ+Cache",
// "BigJoin", "SparkSQL".
func EngineNames() []string { return engine.EngineNames() }

// AllEngineNames is EngineNames plus "Hybrid", the selectivity-routed
// binary/WCOJ engine layered on top of the paper's five.
func AllEngineNames() []string { return engine.AllEngineNames() }

// NewRelation creates an empty relation with the given schema.
func NewRelation(name string, attrs ...string) *Relation {
	return relation.New(name, attrs...)
}

// CatalogQuery returns one of the paper's benchmark queries Q1–Q11
// (Fig. 7). It panics on unknown names; use ParseQuery for ad-hoc queries.
func CatalogQuery(name string) Query { return hypergraph.Get(name) }

// CatalogQueries returns all benchmark queries in order.
func CatalogQueries() []Query { return hypergraph.AllQueries() }

// ParseQuery parses "Name :- R1(a,b) ⋈ R2(b,c) ⋈ ..." (JOIN or commas also
// accepted as separators).
func ParseQuery(s string) (Query, error) { return hypergraph.ParseQuery(s) }

// GenerateGraph returns a deterministic synthetic analogue of one of the
// paper's datasets (WB, AS, WT, LJ, EN, OK) at the given scale (1.0 ≈ the
// paper's edge counts ×10⁻³). Results are memoized; do not mutate.
func GenerateGraph(name string, scale float64) *Relation {
	return dataset.Load(name, scale)
}

// LoadGraph reads a SNAP-format edge list ("src dst" per line, '#'
// comments) — the format of the paper's real datasets.
func LoadGraph(path string) (*Relation, error) { return dataset.LoadSNAPFile(path) }

// DatasetNames lists the named synthetic datasets in size order.
func DatasetNames() []string { return dataset.Names() }
