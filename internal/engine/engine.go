// Package engine implements the distributed join engines the paper
// evaluates (§VII) — ADJ (the contribution), HCubeJ (one-round,
// communication-first), HCubeJ+Cache, BigJoin (multi-round parallel
// Leapfrog) and SparkSQL (the multi-round pairwise baseline) — plus Hybrid.
// An engine is a row of engineTable: a planner that lowers a bound query to
// a plan.Program. There is one way to run a query: Prepare picks the
// planner and lowers, Run interprets the Program on the cluster runtime
// under the caller's context and reports the paper's cost breakdown:
// Optimization / Pre-Computing / Communication / Computation.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"adj/internal/blockcache"
	"adj/internal/cluster"
	"adj/internal/costmodel"
	"adj/internal/hcube"
	"adj/internal/leapfrog"
	"adj/internal/relation"
	"adj/internal/trie"
)

// ErrBudget marks a run that exceeded its work budget — the analogue of
// the paper's 12-hour timeout / OOM failures (frame-top bars in Fig. 12).
var ErrBudget = errors.New("engine: work budget exceeded")

// Config is shared engine configuration.
type Config struct {
	// NumServers is the cluster size (the paper varies 1..28).
	NumServers int
	// Samples for the sampling-based optimizer.
	Samples int
	// Seed drives every randomized choice.
	Seed int64
	// Budget caps total extension/intermediate work per run (0 = unlimited).
	Budget int64
	// MemoryPerServer bounds HCube loads in tuples (0 = unbounded).
	MemoryPerServer int64
	// Sequential builds the run's cluster in the deterministic sequential
	// simulation: workers run one at a time. The default runs one goroutine
	// per worker (the hot path). A borrowed Cluster keeps its own mode.
	Sequential bool
	// CollectOutput materializes result tuples into Report.Output (tests);
	// default counts only.
	CollectOutput bool

	// --- Session execution (see the adj package's Session API) ---

	// Ctx is the run's context. It is required: Prepare and Run reject a
	// nil Ctx. Cancellation is observed at every phase barrier, before
	// each cube join, inside the Leapfrog inner loops and between
	// samples while planning, so a mid-run cancel returns promptly with the
	// context's error and no leaked goroutines.
	Ctx context.Context
	// Cluster, when non-nil, is a session-resident cluster borrowed for
	// this run: the engine resets its metrics and per-cube state but does
	// not close it, and NumServers is taken from it. It is also how a run
	// gets a transport other than the in-process one. nil builds a fresh
	// in-process cluster for the run and closes it on return.
	Cluster *cluster.Cluster
	// Prepared, when non-nil, supplies the cached planning artifact of a
	// PreparedQuery: Run skips its optimization phase (sampling included)
	// and interprets the cached Program. Produce it with Prepare for the
	// same engine; a plan prepared for another engine is an error.
	Prepared *PreparedPlan
	// Reuse, when non-nil, connects HCube shuffles to a session-resident
	// block-trie store: relations whose content signatures are listed skip
	// the shuffle entirely when the store still holds their complete block
	// set, and publish their built tries afterwards for the next run.
	Reuse *hcube.Reuse
}

// errNilCtx rejects a Config without a context: every run is cancellable
// by its caller, so there is no default to fall back to.
var errNilCtx = errors.New("engine: Config.Ctx is nil (a context is required)")

func (c Config) withDefaults() Config {
	if c.Cluster != nil {
		// Shares are optimized for the cluster the run executes on.
		c.NumServers = c.Cluster.N
	}
	if c.NumServers <= 0 {
		c.NumServers = 4
	}
	if c.Samples <= 0 {
		c.Samples = 1000
	}
	return c
}

// Report is one engine run's outcome.
type Report struct {
	Engine  string
	Query   string
	Dataset string
	Servers int
	Results int64
	// Cost breakdown in seconds, as in Tables II–IV. Computation is
	// measured: per step, the busiest worker (an exchange's busiest
	// producer plus its busiest consumer). Communication is modeled: the
	// paper's network (costmodel.ExchangeSeconds) prices each exchange's
	// bottleneck bytes and messages. Optimization and PreComputing add
	// their steps' measured seconds and their exchanges' modeled ones.
	Optimization  float64
	PreComputing  float64
	Communication float64
	Computation   float64
	// TuplesShuffled counts every tuple copy moved (Fig. 1a's metric).
	TuplesShuffled int64
	BytesShuffled  int64
	Messages       int64
	// Block-trie cache counters, summed over workers (HCube engines only):
	// CacheBlocks counts distinct (relation, block) fragments received,
	// TrieBuilds the block tries actually constructed (equal to CacheBlocks
	// when every block is built exactly once), and TrieCacheHits the
	// block-trie requests answered without a build: a worker joins one
	// cube, so these are the tries adopted from the session's trie store.
	CacheBlocks   int64
	TrieBuilds    int64
	TrieCacheHits int64
	// Emitted-run counters, summed over cubes (Leapfrog engines with
	// CollectOutput only): results leave the leaf intersection as batched
	// runs — EmittedRuns deliveries carrying EmittedValues tuples — rather
	// than per-tuple callbacks. TestCacheSchedulerEquivalenceAllEngines
	// pins EmittedValues == Results; benchmark/'s
	// leapfrog.emitted_values_per_run measures the batch size.
	EmittedRuns   int64
	EmittedValues int64
	// Failed marks budget/memory failures (frame-top bars).
	Failed     bool
	FailReason string
	// Fault counters (fault-tolerant execution): PanicsRecovered counts
	// worker panics the runtime recovered into errors during this run,
	// TransportRetries the transport-level dial/write retries its exchanges
	// performed. Retried marks an execution the session re-ran after a
	// transient transport failure (Options.Retry) — a degraded but
	// successful exec.
	PanicsRecovered  int64
	TransportRetries int64
	Retried          bool
	// Serving-tier counters, set by session executions: QueueSeconds is
	// how long the request waited in the admission queue before a cluster
	// slot freed, AdmissionClass the scheduling class it was admitted
	// under ("interactive" or "bulk"; empty on direct engine runs, which
	// bypass admission).
	QueueSeconds   float64
	AdmissionClass string
	// Exchange counters: StreamChunks counts chunk envelopes delivered,
	// OverlapSeconds the comm/compute overlap the pipeline reclaimed
	// (producer + consumer busy time in excess of exchange wall time; 0
	// under Sequential), RecvPeakBytes the largest receive-side payload
	// high-water of any phase (window-bounded in parallel mode, the full
	// inbox under Sequential), and TransportDials the connections the
	// run's exchanges opened — persistent transports amortize these
	// toward zero.
	StreamChunks   int64
	OverlapSeconds float64
	RecvPeakBytes  int64
	TransportDials int64
	// Plan documents the chosen plan (ADJ) or order (others).
	Plan string
	// Output holds materialized results when Config.CollectOutput.
	Output *relation.Relation
	// Metrics is the run's record, one entry per runtime step in execution
	// order; finishReport folds the cost breakdown, the shuffle and
	// exchange counters and CPUSeconds from it.
	Metrics *cluster.Metrics
	// cpuSeconds is the measured part of PreComputing and Computation.
	cpuSeconds float64
}

// CPUSeconds is the run's measured pre-computing and computation time: the
// worker seconds a tenant is charged, with no modeled network time in it.
func (r Report) CPUSeconds() float64 { return r.cpuSeconds }

// Total returns the end-to-end cost.
func (r Report) Total() float64 {
	return r.Optimization + r.PreComputing + r.Communication + r.Computation
}

// String renders a one-line summary.
func (r Report) String() string {
	status := fmt.Sprintf("results=%d", r.Results)
	if r.Failed {
		status = "FAILED(" + r.FailReason + ")"
	}
	return fmt.Sprintf("%-12s %-4s opt=%7.3fs pre=%7.3fs comm=%7.3fs comp=%7.3fs total=%8.3fs tuples=%d %s",
		r.Engine, r.Query, r.Optimization, r.PreComputing, r.Communication, r.Computation,
		r.Total(), r.TuplesShuffled, status)
}

// clusterFor returns the cluster a run executes on and its release hook:
// a borrowed session-resident cluster (cfg.Cluster) is reset — fresh
// metrics, run context installed — and handed back un-closed; otherwise a
// fresh cluster is built and the release closes it. Engines must call
// release exactly once (defer it).
func clusterFor(cfg Config) (*cluster.Cluster, func()) {
	if cfg.Cluster != nil {
		c := cfg.Cluster
		c.ResetMetrics()
		c.SetContext(cfg.Ctx)
		return c, func() {
			// Hand the cluster back with no per-run residue: a failed or
			// cancelled run must not leave inbox backlog, arena bytes or
			// half-built registries for the session's next execution (the
			// session-level trie store lives elsewhere and survives).
			c.ResetRun()
			c.SetContext(nil)
		}
	}
	c := cluster.New(cluster.Config{N: cfg.NumServers, Sequential: cfg.Sequential})
	c.SetContext(cfg.Ctx)
	return c, func() { c.Close() }
}

// cancelOf returns a cheap cancellation poll for the run's context, or nil
// when the context can never be cancelled (context.Background()) so the hot
// loops skip the check entirely.
func cancelOf(cfg Config) func() bool {
	if cfg.Ctx.Done() == nil {
		return nil
	}
	ctx := cfg.Ctx
	return func() bool { return ctx.Err() != nil }
}

// defaultParams is the cost-model constants for a run's cluster and memory
// bound.
func defaultParams(cfg Config) costmodel.Params {
	p := costmodel.DefaultParams(cfg.NumServers)
	p.MemoryPerServer = cfg.MemoryPerServer
	return p
}

// cubeJoin is localCubeJoin's outcome.
type cubeJoin struct {
	// total is the summed result count, merged the materialized output
	// (cfg.CollectOutput on an op that does not keep its output on the
	// workers).
	total  int64
	merged *relation.Relation
	cache  blockcache.Stats
	emit   emitStats
	// rows[w] is the result count of worker w's cube: the next execution's
	// hint.
	rows []int64
}

// localCubeJoin runs Leapfrog on every worker's cube and returns the summed
// result count, the materialized output (when requested), the folded
// block-cache stats and the per-worker result counts. hcube.Optimize picks
// exactly NumServers cubes, so worker w is cube w and holds one block of
// each relation; its tries come from its block-trie registry, each built
// once at first use (charged to the same computation phase, as in the paper
// where trie construction is part of join processing). The per-worker
// extension budget is cfg.Budget divided across workers.
//
// When storeAs is non-empty each worker keeps its cube's output resident as
// w.Rels[storeAs] — a valid partition of the result, since HCube assigns
// every output tuple to exactly one cube — and the coordinator sees only the
// count. This is how the hybrid plan's cyclic core feeds its downstream
// distributed hash joins without a coordinator round-trip.
//
// hint is what the previous execution of this op over the same content
// returned as rows, or nil; one of another length than the cluster counts as
// none. It sizes the output and nothing else: every worker writes into its
// own window of the final columns (see cubeWindows), so with a true hint
// each row is written once, where it stays, and with a wrong or missing one
// the workers grow private columns and the fold copies them — the rows and
// their worker order are the same either way.
//
// Each worker joins on its own goroutine and polls for cancellation before
// it starts.
func localCubeJoin(c *cluster.Cluster, phase string, infos []hcube.RelInfo, order []string, cfg Config, cached bool, storeAs string, hint []int64) (cubeJoin, error) {
	collect := cfg.CollectOutput || storeAs != ""
	res := cubeJoin{rows: make([]int64, c.N)}
	if len(hint) != c.N {
		hint = make([]int64, c.N) // no hint: every window starts with no capacity
	}
	emitted := make([]emitStats, c.N)
	var outs []*relation.Relation // per-worker outputs in worker order
	var all *cubeWindows          // the coordinator's fold, nil when the workers keep theirs
	if collect {
		outs = make([]*relation.Relation, c.N)
		if storeAs == "" {
			all = newCubeWindows(order, hint)
		}
	}
	budgetPer := int64(0)
	if cfg.Budget > 0 {
		budgetPer = cfg.Budget / int64(c.N)
		if budgetPer == 0 {
			budgetPer = 1
		}
	}
	// Poll the cluster's derived run context, not just cfg.Ctx: it is also
	// cancelled when a peer worker panics, so the leapfrog inner loops
	// abandon their work mid-phase instead of computing to the barrier of a
	// run that already failed.
	runCtx := c.Context()
	cancelled := c.CancelPoll()
	err := c.Parallel(phase, func(w *cluster.Worker) error {
		if err := runCtx.Err(); err != nil {
			return err
		}
		// The worker writes to window win of wins: the coordinator's, or
		// its own when its output stays here.
		wins, win := all, w.ID
		if storeAs != "" {
			wins, win = newCubeWindows(order, hint[w.ID:w.ID+1]), 0
		}
		tries := cubeTries(w, infos, order)
		opts := leapfrog.Options{Budget: budgetPer, Cancel: cancelled}
		if collect {
			// The sink appends whole runs from the leaf intersection to the
			// worker's window of the output columns.
			outs[w.ID] = wins.window(win)
			opts.Sink = relation.NewColumnWriter(outs[w.ID])
		}
		var st leapfrog.Stats
		var err error
		if cached {
			cj := leapfrog.NewCachedJoin(tries, order, cacheBudget(cfg))
			st, err = cj.Run(opts)
		} else {
			st, err = leapfrog.Join(tries, order, opts)
		}
		if err != nil {
			if errors.Is(err, leapfrog.ErrBudget) {
				return ErrBudget
			}
			if errors.Is(err, leapfrog.ErrCanceled) {
				return runCtx.Err()
			}
			return err
		}
		res.rows[w.ID] = st.Results
		emitted[w.ID] = emitStats{runs: st.EmittedRuns, values: st.EmittedValues}
		if err := runCtx.Err(); err != nil {
			return err
		}
		if storeAs != "" {
			w.Rels[storeAs] = wins.fold(storeAs, outs[w.ID:w.ID+1])
		}
		return nil
	})
	for _, w := range c.Workers {
		res.cache.Add(w.Blocks.Stats())
	}
	for _, e := range emitted {
		res.emit.add(e)
	}
	if err != nil {
		return cubeJoin{cache: res.cache, emit: res.emit}, err
	}
	for _, r := range res.rows {
		res.total += r
	}
	if all != nil {
		res.merged = all.fold("out", outs)
	}
	return res, nil
}

// cubeWindows is the output storage of one fold — a worker's cube when the
// op keeps its output on the workers, every worker's cube otherwise: the
// final columns, allocated once at the hinted row count, and one window of
// them per cube, in fold order. A window is its stretch of every column
// with length 0 and the capacity clamped to the cube's hinted rows
// (col[off:off:off+n]), so the cube's ColumnWriter appends in place for as
// long as the hint holds and re-allocates privately, as append does, once it
// does not — a cube can never write into its neighbour's rows. No hint is
// the same thing with every capacity 0.
type cubeWindows struct {
	order []string
	cols  [][]relation.Value
	// off[k]:off[k+1] is window k.
	off []int
}

// newCubeWindows sizes the storage from the hinted row counts, one per cube
// in fold order.
func newCubeWindows(order []string, hint []int64) *cubeWindows {
	off := []int{0}
	for _, n := range hint {
		off = append(off, off[len(off)-1]+int(n))
	}
	cw := &cubeWindows{order: order, cols: make([][]relation.Value, len(order)), off: off}
	for j := range cw.cols {
		cw.cols[j] = make([]relation.Value, 0, off[len(off)-1])
	}
	return cw
}

// window returns the empty relation cube k writes its rows to.
func (cw *cubeWindows) window(k int) *relation.Relation {
	lo, hi := cw.off[k], cw.off[k+1]
	cols := make([][]relation.Value, len(cw.cols))
	for j, col := range cw.cols {
		cols[j] = col[lo:lo:hi]
	}
	return relation.FromColumns("out", cw.order, cols)
}

// fold returns the cubes' outputs, outs[k] written through window k,
// concatenated in order. When every cube stayed inside its window the rows
// are already in the final columns and only a cube that sits right of where
// it belongs — one after a cube that came up short — is moved; with a true
// hint that is no cube at all. A cube that outgrew its window left it, so
// then the columns are allocated again at the exact size and every cube is
// copied: what a fold without a hint always does.
func (cw *cubeWindows) fold(name string, outs []*relation.Relation) *relation.Relation {
	rows, inPlace := 0, true
	for k, o := range outs {
		rows += o.Len()
		inPlace = inPlace && o.Len() <= cw.off[k+1]-cw.off[k]
	}
	if !inPlace {
		all := relation.NewWithCapacity(name, rows, cw.order...)
		for _, o := range outs {
			all.AppendAll(o)
		}
		return all
	}
	cols := make([][]relation.Value, len(cw.cols))
	for j, col := range cw.cols {
		cols[j] = col[:rows]
	}
	at := 0
	for k, o := range outs {
		if n := o.Len(); n > 0 && at < cw.off[k] {
			for j, src := range o.Columns() {
				copy(cols[j][at:at+n], src) // to the left, where every earlier cube already is
			}
		}
		at += o.Len()
	}
	return relation.FromColumns(name, cw.order, cols)
}

// emitStats folds the leapfrog emitted-run counters across cubes/workers.
type emitStats struct {
	runs, values int64
}

func (e *emitStats) add(o emitStats) {
	e.runs += o.runs
	e.values += o.values
}

// cacheBudget is HCubeJ+Cache's per-level cache size in values.
func cacheBudget(cfg Config) int {
	if cfg.MemoryPerServer > 0 {
		// The cache gets whatever memory HCube's shuffled load left behind —
		// the starvation effect §VII describes for HCubeJ+Cache on LJ.
		b := int(cfg.MemoryPerServer / 4)
		if b < 0 {
			b = 0
		}
		return b
	}
	return 1 << 22
}

// cubeTries assembles the tries of a worker's cube in the global order from
// its block-trie registry: the cube holds one block of each relation, whose
// trie is built here, at first use. A relation with no tuples in the cube
// joins as empty.
func cubeTries(w *cluster.Worker, infos []hcube.RelInfo, order []string) []*trie.Trie {
	out := make([]*trie.Trie, 0, len(infos))
	for _, ri := range infos {
		tr := w.Blocks.Trie(ri.Name)
		if tr == nil {
			tr = trie.Build(relation.New(ri.Name, ri.Attrs...), trie.AttrsInOrder(ri.Attrs, order))
		}
		out = append(out, tr)
	}
	return out
}

// finishReport is the one fold of a run's record into the Report: each
// entry lands in the paper's bucket its phase name prefixes ("optimize",
// "precompute", else comm/comp), with its measured seconds and the modeled
// network time costmodel.ExchangeSeconds prices it at.
func finishReport(r *Report, m *cluster.Metrics) {
	for _, e := range m.Entries() {
		comp, comm := e.CompSeconds(), costmodel.ExchangeSeconds(e)
		switch {
		case strings.HasPrefix(e.Phase, "optimize"):
			r.Optimization += comp + comm
		case strings.HasPrefix(e.Phase, "precompute"):
			r.PreComputing += comp + comm
			r.cpuSeconds += comp
		default:
			r.Communication += comm
			r.Computation += comp
			r.cpuSeconds += comp
		}
		r.TuplesShuffled += e.TuplesSent
		r.BytesShuffled += e.BytesSent
		r.Messages += e.Messages
		r.StreamChunks += e.StreamChunks
		r.OverlapSeconds += e.OverlapSeconds
		r.RecvPeakBytes = max(r.RecvPeakBytes, e.RecvPeakBytes)
	}
	r.PanicsRecovered = m.PanicsRecovered()
	r.TransportRetries = m.TransportRetries()
	r.TransportDials = m.TransportDials()
	r.Metrics = m
}
