package engine

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/optimizer"
	"adj/internal/plan"
	"adj/internal/relation"
)

// planner is an engine's whole identity: it lowers a bound query to the
// plan.Program the shared interpreter executes. cfg supplies the planning
// knobs (NumServers, Samples, Seed, Ctx for cancellation).
type planner func(q hypergraph.Query, rels []*relation.Relation, cfg Config) (*plan.Program, error)

// engineTable is the one place an engine name selects behaviour: Prepare,
// Engines, EngineNames and AllEngineNames all derive from it. Rows are in
// presentation order — the paper's five as its tables and figures list
// them, then the engines this implementation adds.
var engineTable = []struct {
	name string
	plan planner
	// paper marks the five systems of §VII (EngineNames).
	paper bool
	// listed marks rows the registry offers (Engines, AllEngineNames); an
	// unlisted row is reachable only by name through Prepare/Run.
	listed bool
}{
	// SparkSQL-style baseline: a greedy chain of distributed binary hash
	// joins shuffling every intermediate. On cyclic queries the
	// intermediates explode — the failure mode Fig. 12 shows.
	{"SparkSQL", planBinary, true, true},
	// Multi-round distributed WCOJ (Ammar et al., PVLDB'18): one attribute
	// per round; a proposer relation (the smallest containing the
	// attribute) generates candidate extensions and every other relation
	// containing it verifies them via a shuffle to the worker owning the
	// matching index partition. Low memory per round, but every round
	// shuffles all partial bindings.
	{"BigJoin", planBigJoin, true, true},
	// One-round communication-first baseline (§II-A): the original Push
	// HCube shuffle with shares optimized for communication only, then
	// plain Leapfrog per cube under the order selected from all n! orders
	// by estimated intermediate size (Fig. 8's "All-Selected").
	{"HCubeJ", planHCubeJ(false), true, true},
	// HCubeJ with the CacheTrieJoin-style cached Leapfrog. Its cache budget
	// shrinks with the memory HCube's shuffled load consumes, reproducing
	// the starvation the paper reports on large datasets.
	{"HCubeJ+Cache", planHCubeJ(true), true, true},
	// The paper's system (§III): sample, co-optimize pre-computing /
	// communication / computation over the GHD-restricted plan space
	// (Alg. 2), pre-compute the chosen bags with distributed joins, shuffle
	// the rewritten query with the optimized Merge HCube, and run Leapfrog
	// per cube under the chosen valid attribute order.
	{"ADJ", planADJ(true), true, true},
	// Selectivity-routed binary/WCOJ planner: cyclic core → Leapfrog,
	// acyclic ears → hash joins (see lowerHybrid).
	{"Hybrid", lowerHybrid, false, true},
	// ADJ's machinery with the communication-first strategy (no
	// pre-computation): the right-hand columns of Tables II–IV. It keeps
	// the optimized shuffle, isolating the plan strategy as the only
	// difference.
	{"ADJ(comm-first)", planADJ(false), false, false},
}

// RunFunc is the signature of a registry entry: Run with the engine name
// bound.
type RunFunc func(q hypergraph.Query, rels []*relation.Relation, cfg Config) (Report, error)

// Engines returns the registry of listed engines keyed by name: the paper's
// five plus Hybrid, each a closure over Run.
func Engines() map[string]RunFunc {
	reg := make(map[string]RunFunc, len(engineTable))
	for _, e := range engineTable {
		if name := e.name; e.listed {
			reg[name] = func(q hypergraph.Query, rels []*relation.Relation, cfg Config) (Report, error) {
				return Run(name, q, rels, cfg)
			}
		}
	}
	return reg
}

// EngineNames returns the paper's five engines in its presentation order
// (benchmark tables and figures iterate these).
func EngineNames() []string { return engineNames(true) }

// AllEngineNames returns every registry key in presentation order: the
// paper's five followed by the engines this implementation adds.
func AllEngineNames() []string { return engineNames(false) }

func engineNames(paperOnly bool) []string {
	var names []string
	for _, e := range engineTable {
		if e.listed && (e.paper || !paperOnly) {
			names = append(names, e.name)
		}
	}
	return names
}

// PreparedPlan is the cached planning artifact of a prepared query: the
// part of a run that samples the data and chooses a plan, split from
// execution so a session can pay it once and execute many times.
type PreparedPlan struct {
	// Engine is the table name the plan was prepared for; Run rejects a
	// plan prepared for a different engine.
	Engine string
	// Program is the lowered physical plan the IR interpreter executes.
	Program *plan.Program
	// Seconds is the measured planning time — what Run charges to its
	// Optimization phase when it plans itself.
	Seconds float64
	// cubeRows maps a LeapfrogCube op's ID to the row count each worker's
	// cube produced the last time the op ran to the end: the capacity hint
	// of the next execution's output (localCubeJoin), never its truth. A
	// plan is keyed by one content signature of its inputs
	// (Session.planKeyLocked): other content gets another plan, and content
	// that comes back finds its plan, counts included, in the plan cache.
	// So the counts never describe content other than the plan's own.
	// Concurrent executions of one plan, from any session sharing it, share
	// them: the map is immutable once stored and replaced whole, so a reader
	// takes no lock.
	cubeRows atomic.Pointer[map[int][]int64]
}

// cubeRowsOf returns the remembered counts of op, or nil.
func (p *PreparedPlan) cubeRowsOf(op int) []int64 {
	if m := p.cubeRows.Load(); m != nil {
		return (*m)[op]
	}
	return nil
}

// rememberCubeRows publishes rows as op's counts unless they are the ones
// already there — on unchanged content they always are, so a warm execution
// stores nothing. Of two executions finishing together one's snapshot wins;
// both counted the same content.
func (p *PreparedPlan) rememberCubeRows(op int, rows []int64) {
	old := p.cubeRows.Load()
	if old != nil && slices.Equal((*old)[op], rows) {
		return
	}
	next := map[int][]int64{}
	if old != nil {
		next = maps.Clone(*old)
	}
	next[op] = rows
	p.cubeRows.Store(&next)
}

// Prepare looks engineName up in the table and runs its planner over the
// bound relations: sampling-based cardinality estimation plus plan
// selection for the optimizing engines, the cheap deterministic orders for
// the others, selectivity-driven strategy routing for Hybrid. The result
// plugs into Config.Prepared, making Run skip its optimization phase.
// cfg.Ctx is required and observed between samples; a context that is
// already done fails every engine with its error. A query Validate refuses
// is refused here, before any engine plans it.
func Prepare(engineName string, q hypergraph.Query, rels []*relation.Relation, cfg Config) (*PreparedPlan, error) {
	if cfg.Ctx == nil {
		return nil, errNilCtx
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	for _, e := range engineTable {
		if e.name != engineName {
			continue
		}
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		prog, err := e.plan(q, rels, cfg)
		if err != nil {
			return nil, err
		}
		// A cancel during planning cuts the estimates short; the plan
		// searched from them must not be handed out (or cached).
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
		prog.Engine = engineName
		return &PreparedPlan{Engine: engineName, Program: prog, Seconds: time.Since(t0).Seconds()}, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (want one of %v)", engineName, AllEngineNames())
}

// planADJ is ADJ's planner: co-optimized over the GHD plan space, or the
// communication-first plan through the same lowering.
func planADJ(coOptimize bool) planner {
	return func(q hypergraph.Query, rels []*relation.Relation, cfg Config) (*plan.Program, error) {
		opt, err := adjPlan(q, rels, cfg, coOptimize)
		if err != nil {
			return nil, err
		}
		return lowerADJ(q, rels, opt), nil
	}
}

// planHCubeJ is the HCubeJ family's planner: ADJ's communication-first
// plan, whose order is chosen over all n! orders by estimated intermediate
// size (Fig. 8's "All-Selected"); cached selects the level-cached Leapfrog.
func planHCubeJ(cached bool) planner {
	return func(q hypergraph.Query, rels []*relation.Relation, cfg Config) (*plan.Program, error) {
		opt, err := adjPlan(q, rels, cfg, false)
		if err != nil {
			return nil, err
		}
		return lowerHCubeJ(rels, opt, cached), nil
	}
}

func planBigJoin(q hypergraph.Query, rels []*relation.Relation, _ Config) (*plan.Program, error) {
	return lowerBigJoin(q, rels, q.Attrs())
}

func planBinary(q hypergraph.Query, rels []*relation.Relation, _ Config) (*plan.Program, error) {
	return lowerBinary(q, rels, binaryJoinOrder(rels)), nil
}

// adjPlan is ADJ's optimization phase (§III): take the cost constants, then
// co-optimize over the GHD-restricted plan space (or pick the
// communication-first plan). No constant is timed, so the plan is a function
// of the inputs and the seed, in any process on any host.
func adjPlan(q hypergraph.Query, rels []*relation.Relation, cfg Config, coOptimize bool) (*optimizer.Plan, error) {
	opt, err := newOptimizer(q, rels, cfg)
	if err != nil {
		return nil, err
	}
	if coOptimize {
		return opt.CoOptimize()
	}
	return opt.CommunicationFirst()
}

// newOptimizer is every planner's optimizer over q: the run's cost-model
// constants, sample count and seed, polling cfg.Ctx between samples.
func newOptimizer(q hypergraph.Query, rels []*relation.Relation, cfg Config) (*optimizer.Optimizer, error) {
	return optimizer.New(q, rels, optimizer.Options{
		Params:  defaultParams(cfg),
		Samples: cfg.Samples,
		Seed:    cfg.Seed,
		Cancel:  cancelOf(cfg),
	})
}

// shuffleReuse builds the hcube.Reuse for one shuffle from the session's
// content signatures: base relations (query atoms) carry the signatures the
// session computed at Register time; engine-materialized relations (ADJ's
// pre-computed bags) get a signature derived deterministically from the
// plan identity and every input signature — same inputs, same plan, same
// content, so the derivation is sound. Relations can only be derived when
// every atom signature is known; otherwise reuse is disabled for the run.
func shuffleReuse(cfg Config, planID string, infos []hcube.RelInfo) *hcube.Reuse {
	if cfg.Reuse == nil || cfg.Reuse.Store == nil {
		return nil
	}
	sigs := make(map[string]uint64, len(infos))
	for _, ri := range infos {
		if s, ok := cfg.Reuse.Sigs[ri.Name]; ok {
			sigs[ri.Name] = s
			continue
		}
		if len(cfg.Reuse.Sigs) == 0 {
			return nil
		}
		sigs[ri.Name] = derivedSig(planID, ri.Name, cfg.Reuse.Sigs)
	}
	return &hcube.Reuse{Store: cfg.Reuse.Store, Sigs: sigs}
}

// derivedSig fingerprints an engine-materialized relation by provenance:
// the plan that materializes it, its name within that plan, and the
// signatures of every input relation, folded in sorted-name order so the
// hash is stable.
func derivedSig(planID, name string, inputs map[string]uint64) uint64 {
	h := relation.NewHash64()
	h.Bytes(planID)
	h.Bytes(name)
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Bytes(n)
		h.Word(inputs[n])
	}
	return h.Sum()
}
