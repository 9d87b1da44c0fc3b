package engine

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"adj/internal/cluster"
	"adj/internal/faultinject"
	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
)

func smallCfg(n int) Config {
	return Config{NumServers: n, Samples: 200, Seed: 1, Ctx: context.Background()}
}

// Every engine must produce the naive join's result count on the triangle
// query over a fixed random graph.
func TestAllEnginesTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	edges := testutil.RandEdges(rng, "E", 500, 30)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	want := int64(relation.NaiveJoin(rels, q.Attrs()).Len())
	if want == 0 {
		t.Fatal("test instance should have triangles")
	}
	for name, run := range Engines() {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			rep, err := run(q, rels, smallCfg(4))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed {
				t.Fatalf("failed: %s", rep.FailReason)
			}
			if rep.Results != want {
				t.Fatalf("results=%d want %d\nplan: %s", rep.Results, want, rep.Plan)
			}
		})
	}
}

// The engine oracle: on random instances every engineTable row returns the
// naive join's rows. The 25 seeds rotate over the transports — LocalTransport,
// loopback TCPTransport, and a faultinject wrapper with no rules, which must
// change nothing — crossed with parallel and Sequential clusters, so every
// cell sees about four seeds. One cluster per seed serves every engine, so
// later engines run on buffers earlier ones handed back.
func TestEnginesAgreeProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	transports := []struct {
		name string
		make func(n int) (cluster.Transport, error)
	}{
		{"local", func(n int) (cluster.Transport, error) { return cluster.NewLocalTransport(n), nil }},
		{"tcp", func(n int) (cluster.Transport, error) { return cluster.NewTCPTransport(n) }},
		{"faultinject", func(n int) (cluster.Transport, error) {
			return faultinject.Wrap(cluster.NewLocalTransport(n), 0), nil
		}},
	}
	cell := 0
	f := func(seed int64) bool {
		tr, sequential := transports[cell%len(transports)], cell/len(transports)%2 == 1
		cell++
		rng := rand.New(rand.NewSource(seed))
		q, rels := testutil.RandQueryInstance(rng, 4, 4, 25, 6)
		n := 1 + rng.Intn(4)
		want := relation.NaiveJoin(rels, q.Attrs())
		transport, err := tr.make(n)
		if err != nil {
			t.Fatal(err)
		}
		c := cluster.New(cluster.Config{N: n, Transport: transport, Sequential: sequential})
		defer c.Close()
		for _, e := range engineTable {
			cfg := Config{NumServers: n, Samples: 60, Seed: seed, Ctx: context.Background(),
				Cluster: c, Sequential: sequential, CollectOutput: true}
			rep, err := Run(e.name, q, rels, cfg)
			if err != nil || rep.Failed {
				t.Logf("seed=%d n=%d %s seq=%v %s: err %v, failed %q", seed, n, tr.name, sequential, e.name, err, rep.FailReason)
				return false
			}
			got := rep.Output.ProjectMulti(q.Attrs()...).Sort()
			if !got.Equal(want.Renamed(got.Name)) {
				t.Logf("seed=%d n=%d %s seq=%v %s: %d rows, oracle has %d, sorted rows differ (q=%s, plan=%s)",
					seed, n, tr.name, sequential, e.name, got.Len(), want.Len(), q, rep.Plan)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// ADJ's materialized output must equal the oracle's tuples, not just the
// count.
func TestADJOutputTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q, rels := testutil.RandQueryInstance(rng, 3, 4, 30, 6)
	cfg := smallCfg(3)
	cfg.CollectOutput = true
	rep, err := Run("ADJ", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NaiveJoin(rels, q.Attrs())
	got := rep.Output
	// ADJ's output order follows its chosen attribute order; project back.
	got = got.ProjectMulti(q.Attrs()...).SortDedup()
	if got.Len() != want.Len() {
		t.Fatalf("output %d tuples, want %d", got.Len(), want.Len())
	}
	if !got.Equal(want.Renamed(got.Name)) {
		t.Fatal("output tuples differ from oracle")
	}
}

func TestADJWithPaperExample(t *testing.T) {
	// The running example (Eq. 2 / Fig. 2): ADJ should consider
	// pre-computing R2⋈R3 and/or R4⋈R5 and still return the right answer.
	q := hypergraph.PaperExample()
	rng := rand.New(rand.NewSource(9))
	db := hypergraph.Database{}
	for _, a := range q.Atoms {
		db[a.Name] = testutil.RandRelation(rng, a.Name, a.Attrs, 60, 6).SortDedup()
	}
	rels, err := q.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(relation.NaiveJoin(rels, q.Attrs()).Len())
	rep, err := Run("ADJ", q, rels, smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != want {
		t.Fatalf("results=%d want %d (plan %s)", rep.Results, want, rep.Plan)
	}
}

func TestBudgetFailureReported(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := testutil.RandEdges(rng, "E", 2000, 40)
	q := hypergraph.Q2()
	rels := q.BindGraph(edges)
	cfg := smallCfg(2)
	cfg.Budget = 50
	for _, name := range []string{"SparkSQL", "BigJoin", "HCubeJ"} {
		rep, err := Run(name, q, rels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Failed {
			t.Fatalf("%s: tiny budget should fail, got %d results", rep.Engine, rep.Results)
		}
	}
}

func TestMemoryFailureReported(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	edges := testutil.RandEdges(rng, "E", 3000, 60)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	cfg := smallCfg(2)
	cfg.MemoryPerServer = 10 // absurd: nothing fits
	rep, err := Run("HCubeJ", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed || rep.FailReason != "memory" {
		t.Fatalf("expected memory failure, got %+v", rep)
	}
}

func TestBinaryJoinShufflesMoreThanOneRound(t *testing.T) {
	// Fig. 1(a): on a cyclic query the multi-round baseline shuffles far
	// more tuples than the one-round engines.
	rng := rand.New(rand.NewSource(13))
	edges := testutil.RandEdges(rng, "E", 1500, 50)
	q := hypergraph.Q5()
	rels := q.BindGraph(edges)
	bj, err := Run("SparkSQL", q, rels, smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	hc, err := Run("HCubeJ", q, rels, smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if bj.Failed || hc.Failed {
		t.Skipf("instance too heavy: bj=%v hc=%v", bj.FailReason, hc.FailReason)
	}
	if bj.TuplesShuffled <= hc.TuplesShuffled {
		t.Fatalf("multi-round shuffled %d <= one-round %d", bj.TuplesShuffled, hc.TuplesShuffled)
	}
}

func TestADJOverTCPTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	edges := testutil.RandEdges(rng, "E", 300, 25)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	want := int64(relation.NaiveJoin(rels, q.Attrs()).Len())

	tr, err := cluster.NewTCPTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{N: 3, Transport: tr})
	defer c.Close()
	cfg := smallCfg(3)
	cfg.Cluster = c
	rep, err := Run("ADJ", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != want {
		t.Fatalf("TCP run: results=%d want %d", rep.Results, want)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Engine: "ADJ", Query: "Q1", Results: 5}
	if r.String() == "" || r.Total() != 0 {
		t.Fatal("report rendering broken")
	}
	r.Failed = true
	r.FailReason = "budget"
	if r.String() == "" {
		t.Fatal("failed report rendering broken")
	}
}

func TestEngineNamesComplete(t *testing.T) {
	reg := Engines()
	for _, n := range AllEngineNames() {
		if _, ok := reg[n]; !ok {
			t.Fatalf("engine %q missing from registry", n)
		}
	}
	if len(reg) != len(AllEngineNames()) {
		t.Fatalf("registry size %d != names %d", len(reg), len(AllEngineNames()))
	}
	// The paper's five stay a prefix of the full list, in its order.
	for i, n := range EngineNames() {
		if AllEngineNames()[i] != n {
			t.Fatalf("AllEngineNames()[%d] = %q, want %q", i, AllEngineNames()[i], n)
		}
	}
}

// ADJ's comm-first variant must agree with co-opt on results.
func TestADJCommFirstParity(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	edges := testutil.RandEdges(rng, "E", 500, 25)
	q := hypergraph.Q5()
	rels := q.BindGraph(edges)
	co, err := Run("ADJ", q, rels, smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	cf, err := Run("ADJ(comm-first)", q, rels, smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if co.Results != cf.Results {
		t.Fatalf("co-opt %d vs comm-first %d", co.Results, cf.Results)
	}
	if cf.PreComputing != 0 {
		t.Fatal("comm-first must not pre-compute")
	}
}

// Engines must also agree on mixed-arity random instances.
func TestEnginesAgreeMixedArity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, rels := testutil.RandMixedQueryInstance(rng, 3, 4, 20, 5)
		want := int64(relation.NaiveJoin(rels, q.Attrs()).Len())
		for _, name := range []string{"ADJ", "HCubeJ", "BigJoin", "SparkSQL"} {
			rep, err := Run(name, q, rels, Config{NumServers: 3, Samples: 60, Seed: seed, Ctx: context.Background()})
			if err != nil || rep.Failed || rep.Results != want {
				if err != nil {
					t.Logf("seed=%d %s: %v", seed, rep.Engine, err)
				} else {
					t.Logf("seed=%d %s: results=%d want=%d failed=%v q=%s", seed, rep.Engine, rep.Results, want, rep.Failed, q)
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
