package engine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adj/internal/cluster"
	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// coldGraph is one graph of the benchmark's cold-adj shape (LJ@0.05).
func coldGraph(seed int64) *relation.Relation { return powerLawGraph(0.05, seed) }

// TestCoOptimizeDeterministic pins the plan-determinism contract: across
// processes, ADJ's plan is a function of (query, relations, seed). This test
// repeats prepares in one process; TestPlanSameAcrossProcesses starts fresh
// ones. Bags of equal cost are common on BindGraph databases (every atom is
// the same edge list); before the co-optimizer visited candidates in bag-ID
// order those ties broke by map iteration order, and repeated prepares of
// one graph returned two traversals.
func TestCoOptimizeDeterministic(t *testing.T) {
	q := hypergraph.Q5()
	cfg := Config{NumServers: 4, Seed: 1, Ctx: context.Background()}
	for seed := int64(1); seed <= 8; seed++ {
		rels := q.BindGraph(coldGraph(seed))
		var first string
		for i := 0; i < 50; i++ {
			pp, err := Prepare("ADJ", q, rels, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The est={…} suffix prints modeled seconds; the plan is what
			// precedes it.
			label, _, _ := strings.Cut(pp.Program.Label, " est={")
			if i == 0 {
				first = label
			} else if label != first {
				t.Fatalf("graph %d, prepare %d chose a different plan:\n%s\n%s", seed, i, first, label)
			}
		}
	}
}

// planLabelsArg makes the test binary a child of TestPlanSameAcrossProcesses:
// it prints planLabels and exits.
const planLabelsArg = "plan-labels"

// planLabels prepares ADJ for Q1–Q6 over four cold-adj graphs and returns
// the full plan labels, modeled seconds included, one per line.
func planLabels(t *testing.T) string {
	var sb strings.Builder
	cfg := Config{NumServers: 4, Seed: 1, Ctx: context.Background()}
	for seed := int64(1); seed <= 4; seed++ {
		graph := coldGraph(seed)
		for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q2(), hypergraph.Q3(),
			hypergraph.Q4(), hypergraph.Q5(), hypergraph.Q6()} {
			pp, err := Prepare("ADJ", q, q.BindGraph(graph), cfg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "graph %d %s: %s\n", seed, q.Name, pp.Program.Label)
		}
	}
	return sb.String()
}

// TestPlanSameAcrossProcesses pins that no plan depends on the host: eight
// fresh processes, each with its own first plan, and the last one beside a
// busy loop on every core, must print the same labels. The cold-adj graphs'
// Q5 plans flip on β_trie between 5.5 and 7.0 M/s, inside the range one
// host's timings span, so any cost constant timed while planning fails it.
func TestPlanSameAcrossProcesses(t *testing.T) {
	if flag.Arg(0) == planLabelsArg {
		fmt.Print(planLabels(t))
		return
	}
	const procs = 8
	var first string
	for i := 0; i < procs; i++ {
		stop := func() {}
		if i == procs-1 {
			stop = busyLoop()
		}
		out, err := exec.Command(os.Args[0], "-test.run=^TestPlanSameAcrossProcesses$", planLabelsArg).Output()
		stop()
		if err != nil {
			t.Fatalf("process %d: %v\n%s", i, err, out)
		}
		labels, _, _ := strings.Cut(string(out), "PASS\n")
		if i == 0 {
			first = labels
			if strings.Count(first, "\n") != 24 {
				t.Fatalf("process 0 printed:\n%s", out)
			}
		} else if labels != first {
			t.Fatalf("process %d planned differently from process 0:\n%s\nvs\n%s", i, labels, first)
		}
	}
}

// busyLoop keeps every core of the host busy until the returned stop is
// called.
func busyLoop() (stop func()) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := uint64(1); !done.Load(); x = x*6364136223846793005 + 1 {
			}
		}()
	}
	return func() {
		done.Store(true)
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
}

// TestPairwiseOrderPinned pins SparkSQL's greedy pairwise order on a graph
// whose source and target columns hold different numbers of distinct
// values (on a uniform random graph they tie and the order is the schema's).
// The order is a function of relation sizes and per-attribute distinct
// counts only, so however binaryJoinOrder counts distinct values — a sort
// and compact, the groups of an index — these labels may not move. Recorded
// from the sort-and-compact implementation.
func TestPairwiseOrderPinned(t *testing.T) {
	graph := coldGraph(1)
	for i, tc := range []struct {
		q    hypergraph.Query
		want string
	}{
		{hypergraph.Q1(), "pairwise: R1 ⋈ R2 ⋈ R3"},
		{hypergraph.Q2(), "pairwise: R1 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R5 ⋈ R6"},
		{hypergraph.Q3(), "pairwise: R1 ⋈ R5 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R6 ⋈ R7 ⋈ R8 ⋈ R9 ⋈ R10"},
		{hypergraph.Q4(), "pairwise: R1 ⋈ R5 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R6"},
		{hypergraph.Q5(), "pairwise: R1 ⋈ R5 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R6 ⋈ R7"},
		{hypergraph.Q6(), "pairwise: R1 ⋈ R5 ⋈ R4 ⋈ R3 ⋈ R2 ⋈ R6 ⋈ R7 ⋈ R8"},
	} {
		pp, err := Prepare("SparkSQL", tc.q, tc.q.BindGraph(graph), smallCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		if pp.Program.Label != tc.want {
			t.Errorf("Q%d: plan %q, want %q", i+1, pp.Program.Label, tc.want)
		}
	}
}

// BenchmarkPrepareADJ times one ADJ planning pass on the cold-adj
// workload's shape (Q5 over an LJ@0.05 graph): sampling index, estimates,
// GHD and plan search.
func BenchmarkPrepareADJ(b *testing.B) {
	q := hypergraph.Q5()
	rels := q.BindGraph(coldGraph(1))
	cfg := Config{NumServers: 4, Seed: 1, Ctx: context.Background()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare("ADJ", q, rels, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// A query that repeats an attribute inside an atom, or names one relation
// in two atoms, is refused by every engine before it plans: the engines
// bind one column per attribute and key worker fragments by atom name, so
// such a query used to come back with a wrong count from some engines and
// a transport error (which Options.Retry re-runs) from others.
func TestMalformedQueryRefused(t *testing.T) {
	edges := relation.FromTuples("E", []string{"x", "y"},
		[][]relation.Value{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 5}, {6, 6}})
	db := hypergraph.Database{"E": edges, "F": edges}
	atom := func(name string, attrs ...string) hypergraph.Atom {
		return hypergraph.Atom{Name: name, Attrs: attrs}
	}
	for _, tc := range []struct {
		q    hypergraph.Query
		atom string // the atom the error must name
	}{
		{hypergraph.Query{Name: "Loop", Atoms: []hypergraph.Atom{atom("E", "a", "a")}}, "E(a,a)"},
		{hypergraph.Query{Name: "LoopJoin", Atoms: []hypergraph.Atom{atom("E", "a", "a"), atom("F", "a", "b")}}, "E(a,a)"},
		{hypergraph.Query{Name: "Path", Atoms: []hypergraph.Atom{atom("E", "a", "b"), atom("E", "b", "c")}}, "E(b,c)"},
	} {
		rels, err := tc.q.Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engineTable {
			rep, err := Run(e.name, tc.q, rels, smallCfg(3))
			if err == nil {
				t.Errorf("%s on %s: ran, results=%d; want the query refused", e.name, tc.q, rep.Results)
				continue
			}
			if errors.Is(err, cluster.ErrTransport) || rep.Results != 0 ||
				!strings.Contains(err.Error(), tc.q.Name) || !strings.Contains(err.Error(), tc.atom) {
				t.Errorf("%s on %s: results=%d err=%v; want a validation error naming %s and %s",
					e.name, tc.q, rep.Results, err, tc.q.Name, tc.atom)
			}
		}
	}
}
