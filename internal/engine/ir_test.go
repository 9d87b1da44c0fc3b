package engine

import (
	"context"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"adj/internal/cluster"
	"adj/internal/hypergraph"
	"adj/internal/plan"
	"adj/internal/relation"
	"adj/internal/testutil"
)

// Every engine's Prepare must lower to a valid physical program: a
// well-formed DAG (inputs strictly precede consumers) ending in exactly
// one Emit, with the engine's identity stamped on it, and holding only
// what the interpreter relies on — ops of the kinds runOp executes, and a
// LeapfrogCube that reads exactly one input, the Shuffle that placed its
// cubes. Tree tags each op with the strategy its kind implies: LeapfrogCube,
// Extend and a verify Semijoin "wcoj", HashJoin and a reduction Semijoin
// "binary". Every row runs on Q1 and on Hybrid's split workload.
func TestEveryEngineLowersToValidProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := testutil.RandEdges(rng, "E", 300, 25)
	hq, hrels := hybridWorkload(1000)
	insts := []struct {
		q    hypergraph.Query
		rels []*relation.Relation
		cfg  Config
	}{
		{hypergraph.Q1(), hypergraph.Q1().BindGraph(edges), smallCfg(3)},
		{hq, hrels, Config{NumServers: 4, Samples: 300, Seed: 7, Ctx: context.Background()}},
	}
	executed := map[plan.Kind]bool{
		plan.Shuffle: true, plan.LeapfrogCube: true, plan.HashJoin: true, plan.Semijoin: true,
		plan.Project: true, plan.Emit: true, plan.Scatter: true, plan.Extend: true,
	}
	opLine := regexp.MustCompile(`#(\d+) \S+ .*?(?:  \[(.*)\])?$`)
	for _, in := range insts {
		for _, row := range engineTable {
			name := row.name + "/" + in.q.Name
			pp, err := Prepare(row.name, in.q, in.rels, in.cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			prog := pp.Program
			if prog == nil {
				t.Fatalf("%s: Prepare returned no program", name)
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s: invalid program: %v", name, err)
			}
			if prog.Engine != row.name {
				t.Fatalf("%s: program stamped %q", name, prog.Engine)
			}
			emits := 0
			for _, op := range prog.Ops {
				if !executed[op.Kind] {
					t.Fatalf("%s: op #%d has kind %s, which the interpreter does not execute", name, op.ID, op.Kind)
				}
				if op.Kind == plan.Emit {
					emits++
				}
				if op.Kind == plan.LeapfrogCube && (len(op.Inputs) != 1 || prog.Ops[op.Inputs[0]].Kind != plan.Shuffle) {
					t.Fatalf("%s: LeapfrogCube #%d reads %v, want one Shuffle", name, op.ID, op.Inputs)
				}
			}
			if emits != 1 {
				t.Fatalf("%s: %d Emit ops, want 1", name, emits)
			}
			if last := prog.Ops[len(prog.Ops)-1]; last.Kind != plan.Emit {
				t.Fatalf("%s: last op is %s, want Emit", name, last.Kind)
			}
			tree := prog.Tree()
			tagged := 0
			for _, line := range strings.Split(tree, "\n") {
				m := opLine.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				id, _ := strconv.Atoi(m[1])
				op := prog.Ops[id]
				want := ""
				switch {
				case op.Kind == plan.LeapfrogCube, op.Kind == plan.Extend, op.Kind == plan.Semijoin && op.Attr != "":
					want = "wcoj"
				case op.Kind == plan.HashJoin, op.Kind == plan.Semijoin:
					want = "binary"
				}
				got, _, _ := strings.Cut(m[2], ", ")
				if got != "wcoj" && got != "binary" {
					got = ""
				}
				if got != want {
					t.Fatalf("%s: op #%d (%s) tagged %q, want %q:\n%s", name, id, op.Kind, got, want, tree)
				}
				tagged++
			}
			if tagged != len(prog.Ops) {
				t.Fatalf("%s: Tree renders %d of %d ops:\n%s", name, tagged, len(prog.Ops), tree)
			}
		}
	}
}

// The lowered programs must carry the engines' established phase
// vocabulary — finishReport buckets cost by these names, so a drift here
// silently moves seconds between report columns.
func TestLoweredPhaseNames(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	edges := testutil.RandEdges(rng, "E", 300, 25)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	cfg := smallCfg(3)

	phasesOf := func(name string) map[plan.Kind][]string {
		t.Helper()
		pp, err := Prepare(name, q, rels, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := make(map[plan.Kind][]string)
		for _, op := range pp.Program.Ops {
			out[op.Kind] = append(out[op.Kind], op.Phase)
		}
		return out
	}

	adj := phasesOf("ADJ")
	if got := adj[plan.Shuffle]; len(got) != 1 || got[0] != "shuffle" {
		t.Fatalf("ADJ shuffle phases = %v", got)
	}
	if got := adj[plan.LeapfrogCube]; len(got) != 1 || got[0] != "join" {
		t.Fatalf("ADJ leapfrog phases = %v", got)
	}

	spark := phasesOf("SparkSQL")
	for i, ph := range spark[plan.HashJoin] {
		if want := "join" + string(rune('1'+i)); ph != want {
			t.Fatalf("SparkSQL join %d phase = %q, want %q", i, ph, want)
		}
	}

	big := phasesOf("BigJoin")
	if got := big[plan.Scatter]; len(got) != 1 || got[0] != "round0" {
		t.Fatalf("BigJoin scatter phases = %v", got)
	}
	for _, ph := range big[plan.Extend] {
		if !strings.HasPrefix(ph, "round") || !strings.HasSuffix(ph, "/propose") {
			t.Fatalf("BigJoin propose phase = %q", ph)
		}
	}
	for _, ph := range big[plan.Semijoin] {
		if !strings.Contains(ph, "/verify") {
			t.Fatalf("BigJoin verify phase = %q", ph)
		}
	}
}

// The run's record is the program, executed: one entry per op that runs on
// the cluster, in op order, under the op's Phase — an exchange for every
// Shuffle, HashJoin, Semijoin and Extend, a Parallel entry for every
// LeapfrogCube and Project. The only other entries are "optimize" charges,
// one per op that charges its share optimization.
func TestRecordFollowsProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	edges := testutil.RandEdges(rng, "E", 300, 25)
	// The Hybrid workload and config of TestHybridRoutesSplitAndWins: its
	// plan is the split, with Semijoin pre-reductions and HashJoin ears.
	hq, hrels := hybridWorkload(1000)
	hcfg := Config{NumServers: 4, Samples: 300, Seed: 7, Ctx: context.Background()}
	insts := []struct {
		q    hypergraph.Query
		rels []*relation.Relation
		cfg  Config
	}{
		{hypergraph.Q1(), hypergraph.Q1().BindGraph(edges), smallCfg(3)},
		{hypergraph.Q2(), hypergraph.Q2().BindGraph(edges), smallCfg(3)},
		{hq, hrels, hcfg},
	}
	for _, in := range insts {
		for _, row := range engineTable {
			at := row.name + "/" + in.q.Name
			cfg := in.cfg
			pp, err := Prepare(row.name, in.q, in.rels, cfg)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			cfg.Prepared = pp
			rep, err := Run(row.name, in.q, in.rels, cfg)
			if err != nil || rep.Failed {
				t.Fatalf("%s: err=%v failed=%v(%s)", at, err, rep.Failed, rep.FailReason)
			}
			var want, got []string
			charges := 0
			for _, op := range pp.Program.Ops {
				if op.ChargeOptimize {
					charges++
				}
				switch op.Kind {
				case plan.Shuffle, plan.HashJoin, plan.Semijoin, plan.Extend:
					want = append(want, "exchange "+op.Phase)
				case plan.LeapfrogCube, plan.Project:
					want = append(want, "parallel "+op.Phase)
				}
			}
			for _, e := range rep.Metrics.Entries() {
				if e.Kind == cluster.ChargeEntry && e.Phase == "optimize" {
					charges--
					continue
				}
				got = append(got, e.Kind.String()+" "+e.Phase)
			}
			if strings.Join(got, ", ") != strings.Join(want, ", ") || charges != 0 {
				t.Fatalf("%s: record %v, program %v (%d optimize charges unmatched)", at, got, want, charges)
			}
		}
	}
}

// A prepared execution must reproduce the direct run exactly — same
// results, same failure state, same shuffle volume — with the one intended
// difference: planning already happened, so the optimization phase reports
// (close to) zero for engines that charge planning up front.
func TestPreparedRunParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := testutil.RandEdges(rng, "E", 400, 30)
	q := hypergraph.Q2()
	rels := q.BindGraph(edges)
	cfg := smallCfg(3)
	for _, name := range AllEngineNames() {
		direct, err := Engines()[name](q, rels, cfg)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		pp, err := Prepare(name, q, rels, cfg)
		if err != nil {
			t.Fatalf("%s prepare: %v", name, err)
		}
		pcfg := cfg
		pcfg.Prepared = pp
		warm, err := Engines()[name](q, rels, pcfg)
		if err != nil {
			t.Fatalf("%s prepared: %v", name, err)
		}
		if warm.Results != direct.Results {
			t.Fatalf("%s: prepared results=%d direct=%d", name, warm.Results, direct.Results)
		}
		if warm.Failed != direct.Failed {
			t.Fatalf("%s: prepared failed=%v direct=%v", name, warm.Failed, direct.Failed)
		}
		if warm.TuplesShuffled != direct.TuplesShuffled {
			t.Fatalf("%s: prepared shuffled=%d direct=%d", name, warm.TuplesShuffled, direct.TuplesShuffled)
		}
		if warm.Plan != direct.Plan {
			t.Fatalf("%s: prepared plan %q != direct %q", name, warm.Plan, direct.Plan)
		}
		// ADJ and Hybrid pay sampling at Prepare; the prepared run must not
		// pay it again. (The HCubeJ family charges share optimization inside
		// the shuffle, so it reports optimization seconds either way.)
		switch name {
		case "ADJ", "ADJ(comm-first)", "Hybrid":
			if warm.Optimization != 0 {
				t.Fatalf("%s: prepared run charged %.6fs optimization", name, warm.Optimization)
			}
			if direct.Optimization == 0 {
				t.Fatalf("%s: direct run charged no optimization", name)
			}
		}
	}
}

// A plan is not interchangeable between engines: handing Run a plan that
// Prepare made for another row of the table is an error, not a silent
// replan.
func TestPreparedPlanEngineMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := hypergraph.Q1()
	rels := q.BindGraph(testutil.RandEdges(rng, "E", 200, 20))
	cfg := smallCfg(2)
	pp, err := Prepare("SparkSQL", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Prepared = pp
	if _, err := Run("BigJoin", q, rels, cfg); err == nil || !strings.Contains(err.Error(), `prepared for "SparkSQL"`) {
		t.Fatalf("want a prepared-for-another-engine error, got %v", err)
	}
	if _, err := Run("Nope", q, rels, smallCfg(2)); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("want an unknown-engine error, got %v", err)
	}
}

// A borrowed cluster decides the cluster size: with NumServers unset the
// run must optimize shares for the cluster's three workers (not the default
// four) and report the same plan as a fresh three-server run.
func TestBorrowedClusterSetsNumServers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := hypergraph.Q1()
	rels := q.BindGraph(testutil.RandEdges(rng, "E", 400, 25))
	want := int64(relation.NaiveJoin(rels, q.Attrs()).Len())

	fresh, err := Run("HCubeJ", q, rels, smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	clus := cluster.New(cluster.Config{N: 3})
	defer clus.Close()
	cfg := smallCfg(0)
	cfg.Cluster = clus
	rep, err := Run("HCubeJ", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Servers != 3 || rep.Results != want {
		t.Fatalf("borrowed 3-worker cluster: servers=%d results=%d, want 3 and %d", rep.Servers, rep.Results, want)
	}
	if rep.Plan != fresh.Plan {
		t.Fatalf("shares optimized for the wrong cluster size: %q, fresh 3-server run chose %q", rep.Plan, fresh.Plan)
	}
}

// Budget failures routed through the interpreter must keep the engines'
// established FailReason formats. A SparkSQL join that a worker's local
// hash join refuses names the budget it passed, not a size nobody counted.
func TestInterpreterBudgetFailReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	edges := testutil.RandEdges(rng, "E", 2000, 40)
	q := hypergraph.Q2()
	rels := q.BindGraph(edges)

	cases := []struct {
		engine string
		budget int64
		reason string
	}{
		{"SparkSQL", 40, "budget(intermediate >40 tuples)"},
		{"SparkSQL", 400, "budget(intermediate >400 tuples)"},
		{"SparkSQL", 4000, "budget(intermediate >4000 tuples)"},
		{"BigJoin", 40, "budget"}, // per-worker propose cap trips before the round check
		{"HCubeJ", 40, "budget"},
	}
	for _, tc := range cases {
		cfg := smallCfg(2)
		cfg.Budget = tc.budget
		rep, err := Engines()[tc.engine](q, rels, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.engine, err)
		}
		if !rep.Failed {
			t.Fatalf("%s budget %d: did not fail (results=%d)", tc.engine, tc.budget, rep.Results)
		}
		if rep.FailReason != tc.reason {
			t.Fatalf("%s budget %d: FailReason = %q, want %q", tc.engine, tc.budget, rep.FailReason, tc.reason)
		}
	}
}
