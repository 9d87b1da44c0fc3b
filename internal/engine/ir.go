package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"adj/internal/cluster"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/plan"
	"adj/internal/relation"
	"adj/internal/sampling"
)

// errRunFailed is the interpreter's internal signal that a run ended in a
// *reported* failure (budget, memory): the Report is already marked Failed
// with its FailReason and the run returns (rep, nil), matching the paper's
// frame-top failure bars rather than a Go error.
var errRunFailed = errors.New("engine: run failed (reported)")

// Run is the one way a query executes: borrow/build the cluster, plan (or
// take cfg.Prepared's Program), walk the operator DAG with the IR
// interpreter under cfg.Ctx, and fold metrics into the paper's cost
// buckets. Engines differ only in the Program their table row's planner
// lowers; name is a key of engineTable.
func Run(name string, q hypergraph.Query, rels []*relation.Relation, cfg Config) (Report, error) {
	if cfg.Ctx == nil {
		return Report{}, errNilCtx
	}
	cfg = cfg.withDefaults()
	rep := Report{Engine: name, Query: q.Name, Servers: cfg.NumServers}
	if cfg.Prepared != nil && cfg.Prepared.Engine != name {
		return rep, fmt.Errorf("engine: plan prepared for %q cannot run as %q", cfg.Prepared.Engine, name)
	}
	c, release := clusterFor(cfg)
	defer release()

	// Planning: a session's PreparedQuery pays it once and hands the
	// Program in; otherwise lower the query now, charged to the optimize
	// phase.
	pp := cfg.Prepared
	if pp == nil {
		t0 := time.Now()
		var err error
		if pp, err = Prepare(name, q, rels, cfg); err != nil {
			return rep, err
		}
		c.Metrics.Charge("optimize", time.Since(t0).Seconds())
		cfg.Prepared = pp
	}
	rep.Plan = pp.Program.Label
	if err := cfg.Ctx.Err(); err != nil {
		return rep, err
	}

	err := runProgram(c, pp.Program, rels, cfg, &rep)
	if err != nil && !errors.Is(err, errRunFailed) {
		return rep, err
	}
	finishReport(&rep, c.Metrics)
	return rep, nil
}

// progState is the interpreter's per-run scratch: results of executed ops
// that later ops consume by ID.
type progState struct {
	// lf holds each LeapfrogCube op's outcome.
	lf map[int]lfResult
	// shuffles records each executed hcube plan (keyed by op ID) for the
	// downstream LeapfrogCube and the end-of-run trie publish.
	shuffles map[int]hcube.Plan
	// published collects the shuffle plans to Publish on success, in
	// execution order.
	published []hcube.Plan
	// loaded names the base relations whose fragments are on the workers.
	loaded map[string]bool
}

// load places the named relations' fragments on the workers before an op
// reads them from Worker.Rels — once per run, and only for relations some op
// does read: a shuffle served warm from the trie store touches no base
// tuple, so a warm run copies none. Names that are not base relations
// (earlier ops' outputs, already worker-resident) pass through.
func (st *progState) load(c *cluster.Cluster, rels []*relation.Relation, names ...string) {
	for _, name := range names {
		if st.loaded[name] {
			continue
		}
		for _, r := range rels {
			if r.Name == name {
				c.LoadRelation(r)
				st.loaded[name] = true
				break
			}
		}
	}
}

type lfResult struct {
	total  int64
	merged *relation.Relation
}

// runProgram interprets a lowered Program op by op on the resident
// cluster. A reported failure (budget, memory) marks rep and returns
// errRunFailed; every other error is a real failure of the run.
func runProgram(c *cluster.Cluster, prog *plan.Program, rels []*relation.Relation, cfg Config, rep *Report) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	st := &progState{lf: make(map[int]lfResult), shuffles: make(map[int]hcube.Plan), loaded: make(map[string]bool)}
	for _, op := range prog.Ops {
		if err := cfg.Ctx.Err(); err != nil {
			return err
		}
		if err := runOp(c, op, st, rels, cfg, rep); err != nil {
			return err
		}
	}
	// Publish the built block tries for the next execution over the same
	// content (a no-op without a session store).
	for _, sp := range st.published {
		hcube.Publish(c, sp)
	}
	return nil
}

func runOp(c *cluster.Cluster, op *plan.Op, st *progState,
	rels []*relation.Relation, cfg Config, rep *Report) error {
	switch op.Kind {
	case plan.Shuffle:
		return runShuffle(c, op, st, rels, cfg, rep)
	case plan.LeapfrogCube:
		return runLeapfrog(c, op, st, cfg, rep)
	case plan.HashJoin:
		st.load(c, rels, op.Left.Name, op.Right.Name)
		if size, err := distributedJoin(c, op.Phase, op.Left, op.Right, op.Out.Name, cfg.Budget); err != nil {
			return opFailure(op, err, size, cfg, rep)
		}
		return nil
	case plan.Semijoin:
		var size int64
		var err error
		if op.Attr != "" {
			st.load(c, rels, rels[op.RelIdx].Name)
			size, err = verifyRound(c, op.Phase, rels[op.RelIdx], op.Prefix, op.Attr)
		} else {
			st.load(c, rels, op.Left.Name, op.Right.Name)
			size, err = distributedSemijoin(c, op.Phase, op.Left, op.Right, op.Out.Name)
		}
		if err != nil {
			return opFailure(op, err, 0, cfg, rep)
		}
		return checkOpBudget(op, size, cfg, rep)
	case plan.Project:
		st.load(c, rels, op.Left.Name)
		return c.Parallel(op.Phase, func(w *cluster.Worker) error {
			frag, ok := w.Rels[op.Left.Name]
			if !ok {
				return nil
			}
			canon := frag.ProjectMulti(op.Out.Attrs...)
			canon.Name = op.Out.Name
			w.Rels[op.Out.Name] = canon
			return nil
		})
	case plan.Scatter:
		// Contiguous splits of the first attribute's candidates as the
		// workers' "bindings" fragments (broadcast-free, not a shuffle).
		vals := sampling.ValA(rels, op.Attr)
		c.LoadRelation(relation.FromColumns("bindings", []string{op.Attr}, [][]relation.Value{vals}))
		return nil
	case plan.Extend:
		st.load(c, rels, rels[op.RelIdx].Name)
		size, err := proposeRound(c, op.Phase, rels[op.RelIdx], op.Prefix, op.Attr, cfg.Budget)
		if err != nil {
			return opFailure(op, err, 0, cfg, rep)
		}
		return checkOpBudget(op, size, cfg, rep)
	case plan.Emit:
		st.load(c, rels, op.From)
		return runEmit(c, op, st, cfg, rep)
	default:
		return fmt.Errorf("engine: unknown plan op kind %v", op.Kind)
	}
}

// runShuffle executes one HCube exchange: re-gather dynamic sizes,
// optimize shares (charged to the optimize phase when the plan says so),
// enforce the memory bound, and run the shuffle with session reuse wired —
// loading the fragments of only the relations the store cannot serve warm.
func runShuffle(c *cluster.Cluster, op *plan.Op, st *progState, rels []*relation.Relation, cfg Config, rep *Report) error {
	infos := make([]hcube.RelInfo, len(op.Rels))
	for i, rr := range op.Rels {
		size := rr.Size
		if rr.Dynamic {
			size = globalSize(c, rr.Name)
		}
		infos[i] = hcube.RelInfo{Name: rr.Name, Attrs: rr.Attrs, Size: size}
	}
	t0 := time.Now()
	shares, err := hcube.Optimize(infos, hcube.Config{
		Attrs:           op.Order,
		NumServers:      cfg.NumServers,
		MemoryPerServer: cfg.MemoryPerServer,
	})
	if err != nil {
		return err
	}
	if op.ChargeOptimize {
		// The HCubeJ family charges share optimization to the paper's
		// Optimization column; ADJ's shares are part of the shuffle.
		c.Metrics.Charge("optimize", time.Since(t0).Seconds())
	}
	planID := op.ReuseID
	if op.LabelShares {
		rep.Plan = fmt.Sprintf("ord=%v shares=%v", op.Order, shares.P)
		planID = rep.Plan
	}
	if cfg.MemoryPerServer > 0 && hcube.LoadPerCube(infos, shares) > float64(cfg.MemoryPerServer) {
		rep.Failed = true
		rep.FailReason = "memory"
		return errRunFailed
	}
	sp := hcube.Plan{
		Shares: shares, Rels: infos, Kind: shuffleKindOf(op), TrieOrder: op.Order,
		Reuse: shuffleReuse(cfg, planID, infos),
	}
	sp.Warm = sp.WarmRels()
	for _, ri := range infos {
		if _, warm := sp.Warm[ri.Name]; !warm {
			st.load(c, rels, ri.Name)
		}
	}
	if err := hcube.Run(c, op.Phase, sp); err != nil {
		return err
	}
	st.shuffles[op.ID] = sp
	st.published = append(st.published, sp)
	return nil
}

// shuffleKindOf resolves the HCube implementation the plan chose: Merge
// (ADJ, Hybrid) or Push (the HCubeJ family).
func shuffleKindOf(op *plan.Op) hcube.Kind {
	if op.ShuffleKind == "merge" {
		return hcube.Merge
	}
	return hcube.Push
}

// runLeapfrog executes the WCOJ over the cubes its one input, a Shuffle,
// distributed, folding the cache/emit counters into the report.
func runLeapfrog(c *cluster.Cluster, op *plan.Op, st *progState, cfg Config, rep *Report) error {
	var sp hcube.Plan
	ok := len(op.Inputs) == 1
	if ok {
		sp, ok = st.shuffles[op.Inputs[0]]
	}
	if !ok {
		return fmt.Errorf("engine: LeapfrogCube #%d does not read one Shuffle", op.ID)
	}
	// The plan remembers what each cube produced the last time this op ran
	// to the end; the counts size this run's output and are replaced by its
	// own.
	pp := cfg.Prepared
	res, err := localCubeJoin(c, op.Phase, sp.Rels, op.Order, cfg, op.Cached, op.StoreAs, pp.cubeRowsOf(op.ID))
	rep.CacheBlocks += res.cache.Blocks
	rep.TrieBuilds += res.cache.Builds
	rep.TrieCacheHits += res.cache.Hits
	rep.EmittedRuns += res.emit.runs
	rep.EmittedValues += res.emit.values
	if err != nil {
		return opFailure(op, err, 0, cfg, rep)
	}
	pp.rememberCubeRows(op.ID, res.rows)
	st.lf[op.ID] = lfResult{total: res.total, merged: res.merged}
	return nil
}

// runEmit terminates the plan: count and optionally materialize results,
// either from the upstream LeapfrogCube's folded outputs or by gathering
// the worker fragments of the From relation.
func runEmit(c *cluster.Cluster, op *plan.Op, st *progState, cfg Config, rep *Report) error {
	if op.From == "" {
		for _, in := range op.Inputs {
			if r, ok := st.lf[in]; ok {
				rep.Results = r.total
				rep.Output = r.merged
				return nil
			}
		}
		return fmt.Errorf("engine: Emit #%d has no upstream LeapfrogCube result", op.ID)
	}
	name := op.From
	rep.Results = globalSize(c, name)
	if cfg.CollectOutput {
		out := relation.New("out", op.Out.Attrs...)
		for _, w := range c.Workers {
			if frag, ok := w.Rels[name]; ok && frag.Len() > 0 {
				out.AppendAll(frag.ProjectMulti(op.ProjectOnto...))
			}
		}
		rep.Output = out
	}
	return nil
}

// opFailure routes an op error: a budget overrun becomes the reported
// failure the op's BudgetLabel names, its "%s" verb receiving the size that
// passed the budget — the global size when the op got that far, else
// ">budget" for a worker whose local step passed it first; everything else
// propagates as a real error.
func opFailure(op *plan.Op, err error, size int64, cfg Config, rep *Report) error {
	if !errors.Is(err, ErrBudget) {
		return err
	}
	label := op.BudgetLabel
	if label == "" {
		label = "budget"
	}
	if strings.Contains(label, "%s") {
		passed := fmt.Sprint(size)
		if size <= cfg.Budget {
			passed = fmt.Sprintf(">%d", cfg.Budget)
		}
		label = fmt.Sprintf(label, passed)
	}
	rep.Failed = true
	rep.FailReason = label
	return errRunFailed
}

// checkOpBudget enforces a post-op bound on the op output's global size
// (BigJoin's per-round binding cap).
func checkOpBudget(op *plan.Op, size int64, cfg Config, rep *Report) error {
	if !op.CheckBudget || cfg.Budget <= 0 || size <= cfg.Budget {
		return nil
	}
	rep.Failed = true
	rep.FailReason = fmt.Sprintf("budget(round %d: %d bindings)", op.Round, size)
	return errRunFailed
}
