package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"adj/internal/cluster"
	"adj/internal/dataset"
	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
)

// hubGraph is the skewed case: one hub with an edge to and from each of
// spokes vertices, plus extra random edges among the spokes so that
// triangles exist. Every wedge through the hub lands on the one worker
// that owns the hub's key.
func hubGraph(spokes, extra int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	g := relation.New("E", "src", "dst")
	for v := 1; v <= spokes; v++ {
		g.Append(0, relation.Value(v))
		g.Append(relation.Value(v), 0)
	}
	for i := 0; i < extra; i++ {
		u, v := 1+rng.Int63n(int64(spokes)), 1+rng.Int63n(int64(spokes))
		if u != v {
			g.Append(u, v)
		}
	}
	return g.SortDedup()
}

func powerLawGraph(scale float64, seed int64) *relation.Relation {
	spec := dataset.SpecOf("LJ", scale)
	spec.Seed = seed
	return dataset.Generate(spec)
}

// The multi-round engines against the oracle on rows, not counts, on a
// power-law and a one-hub graph, Sequential and parallel. TuplesShuffled
// and Messages are scheduling-invariant by the determinism contract
// (README.md), so they are pinned as constants (the values of the map-based
// kernels this test was written against): a join kernel that returned other
// rows, or the same rows another number of times, moves them.
func TestBigJoinMatchesNaiveRows(t *testing.T) {
	q := hypergraph.Q1()
	for _, g := range []struct {
		name             string
		edges            *relation.Relation
		tuples, messages map[string]int64
	}{
		{"power-law", powerLawGraph(0.01, 3),
			map[string]int64{"BigJoin": 6474, "SparkSQL": 4196},
			map[string]int64{"BigJoin": 116, "SparkSQL": 64}},
		{"one-hub", hubGraph(120, 400, 5),
			map[string]int64{"BigJoin": 20523, "SparkSQL": 18503},
			map[string]int64{"BigJoin": 116, "SparkSQL": 64}},
	} {
		rels := q.BindGraph(g.edges)
		want := relation.NaiveJoin(rels, q.Attrs())
		if want.Len() == 0 {
			t.Fatalf("%s: no triangles, the case tests nothing", g.name)
		}
		for _, name := range []string{"BigJoin", "SparkSQL"} {
			for _, sequential := range []bool{true, false} {
				cfg := smallCfg(4)
				cfg.Sequential = sequential
				cfg.CollectOutput = true
				rep, err := Run(name, q, rels, cfg)
				if err != nil || rep.Failed {
					t.Fatalf("%s %s seq=%v: err %v, failed %q", g.name, name, sequential, err, rep.FailReason)
				}
				got := rep.Output.ProjectMulti(q.Attrs()...).Sort()
				if !got.Equal(want.Renamed(got.Name)) {
					t.Fatalf("%s %s seq=%v: %d rows, oracle has %d (sorted rows differ)",
						g.name, name, sequential, got.Len(), want.Len())
				}
				if rep.TuplesShuffled != g.tuples[name] || rep.Messages != g.messages[name] {
					t.Fatalf("%s %s seq=%v: shuffled %d tuples in %d messages, pinned %d in %d",
						g.name, name, sequential, rep.TuplesShuffled, rep.Messages, g.tuples[name], g.messages[name])
				}
			}
		}
	}
}

// A propose round whose candidates exceed Config.Budget fails the run as
// "budget" after the count pass: no output column is allocated. All 1500²
// wedges through the hub belong to one worker.
func TestProposeOverBudgetAllocatesNoOutput(t *testing.T) {
	const budget = 1 << 20
	q := hypergraph.Q1()
	rels := q.BindGraph(hubGraph(1500, 0, 1))
	for _, sequential := range []bool{true, false} {
		cfg := smallCfg(4)
		cfg.Sequential = sequential
		cfg.Budget = budget
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run("BigJoin", q, rels, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Failed || rep.FailReason != "budget" {
			t.Fatalf("seq=%v: failed=%v reason=%q, want a propose-round budget failure", sequential, rep.Failed, rep.FailReason)
		}
		// One column of the refused output is 8·budget bytes; the whole run
		// (scatter, three exchanges over 3000 edges) stays far below it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8*budget {
			t.Fatalf("seq=%v: the refused run allocated %d bytes, one output column of %d rows is %d",
				sequential, grew, budget, 8*budget)
		}
	}
}

// reshapeTransport passes every chunk of the phases whose name contains
// phase through reshape: what arrives is a well-formed payload of a shape
// the receiver did not ask for, or under a key it did not expect.
type reshapeTransport struct {
	cluster.Transport
	phase   string
	reshape func(cluster.Envelope) (cluster.Envelope, error)
}

func (t *reshapeTransport) OpenExchange(ctx context.Context, phase string, window int) (cluster.ExchangeStream, error) {
	st, err := t.Transport.OpenExchange(ctx, phase, window)
	if err != nil || !strings.Contains(phase, t.phase) {
		return st, err
	}
	return &reshapeStream{st, t.reshape}, nil
}

type reshapeStream struct {
	cluster.ExchangeStream
	reshape func(cluster.Envelope) (cluster.Envelope, error)
}

func (s *reshapeStream) Sender(worker int) cluster.StreamSender {
	return &reshapeSender{s.ExchangeStream.Sender(worker), s.reshape}
}

type reshapeSender struct {
	cluster.StreamSender
	reshape func(cluster.Envelope) (cluster.Envelope, error)
}

func (s *reshapeSender) Send(e cluster.Envelope) error {
	e, err := s.reshape(e)
	if err != nil {
		return err
	}
	return s.StreamSender.Send(e)
}

// reshapePayload re-encodes an envelope's relation through reshape.
func reshapePayload(reshape func(*relation.Relation) *relation.Relation) func(cluster.Envelope) (cluster.Envelope, error) {
	return func(e cluster.Envelope) (cluster.Envelope, error) {
		r, err := relation.Decode(e.Payload)
		if err != nil {
			return e, err
		}
		e.Payload = relation.Encode(reshape(r))
		return e, nil
	}
}

// A chunk that decodes but has the wrong arity or a renamed attribute, or
// arrives under a key that names none of the receiver's targets, is a
// corrupt payload: every multi-round consumer reports it as a transport
// error (transient, what Options.Retry keys on), never as a worker panic.
func TestWrongShapePayloadIsTransportError(t *testing.T) {
	q := hypergraph.Q1()
	rels := q.BindGraph(testutil.RandEdges(rand.New(rand.NewSource(31)), "E", 400, 30))
	reshapes := map[string]func(cluster.Envelope) (cluster.Envelope, error){
		"wrong arity": reshapePayload(func(r *relation.Relation) *relation.Relation {
			return relation.FromColumns(r.Name, append(r.Attrs, "extra"), append(r.Columns(), r.Column(0)))
		}),
		"renamed attribute": reshapePayload(func(r *relation.Relation) *relation.Relation {
			r.Attrs[0] = "renamed"
			return r
		}),
		"rewritten key": func(e cluster.Envelope) (cluster.Envelope, error) {
			e.Key = "rewritten " + e.Key
			return e, nil
		},
	}
	for _, consumer := range []struct{ engine, phase string }{
		{"SparkSQL", "join1"}, // distributedJoin
		{"BigJoin", "propose"},
		{"BigJoin", "verify"},
	} {
		for shape, reshape := range reshapes {
			c := cluster.New(cluster.Config{N: 3,
				Transport: &reshapeTransport{cluster.NewLocalTransport(3), consumer.phase, reshape}})
			cfg := smallCfg(3)
			cfg.Cluster = c
			_, err := Run(consumer.engine, q, rels, cfg)
			c.Close()
			if !errors.Is(err, cluster.ErrTransport) || errors.Is(err, cluster.ErrWorkerPanic) {
				t.Fatalf("%s %s, %s chunk: err %v, want a transport error and no panic",
					consumer.engine, consumer.phase, shape, err)
			}
		}
	}
}

// proposeShape returns a propose round's local inputs at n rows a side:
// bindings (a,b) and the proposer's fragment (b,c) with b drawn from n/4
// values, so every binding extends by about four candidates.
func proposeShape(n int) (binds, idx *relation.Relation) {
	rng := rand.New(rand.NewSource(2))
	binds = relation.NewWithCapacity("bindings", n, "a", "b")
	idx = relation.NewWithCapacity("R2", n, "b", "c")
	for i := 0; i < n; i++ {
		binds.Append(rng.Int63n(int64(n)), rng.Int63n(int64(n/4)))
		idx.Append(rng.Int63n(int64(n/4)), rng.Int63n(int64(n)))
	}
	return binds, idx
}

// One propose fill allocates a constant number of objects — the index, the
// candidate runs' one backing slice, the row-group array and the reserved
// output columns — at 1 k and at 100 k rows alike (the relation package's
// TestJoinKernelAllocCeiling holds HashJoin and Semijoin to the same).
func TestProposeFillAllocCeiling(t *testing.T) {
	const ceiling = 24
	// A collection between two measured calls would add the runtime's own
	// post-GC allocations (package unique's cleanup, linked in through net)
	// to the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{1000, 100000} {
		binds, idx := proposeShape(n)
		out, err := extendBindings(binds, idx, []string{"b"}, "c", 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() < n {
			t.Fatalf("n=%d: only %d extended bindings, too few for the ceiling to mean anything", n, out.Len())
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := extendBindings(binds, idx, []string{"b"}, "c", 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %d extended bindings, %.0f allocs", n, out.Len(), allocs)
		if allocs > ceiling {
			t.Fatalf("n=%d: %.0f allocations per propose fill, ceiling %d", n, allocs, ceiling)
		}
	}
}

// BenchmarkProposeRound times BigJoin's widest round on the shuffle-tcp
// workload's shape (Q1 over LJ@0.3, four workers, in-process transport):
// every edge as an (a,b) binding extended by c from R2(b,c) — partition and
// ship both sides, index the fragment, count, fill.
func BenchmarkProposeRound(b *testing.B) {
	rels := hypergraph.Q1().BindGraph(powerLawGraph(0.3, 1))
	binds := rels[0].Renamed("bindings")
	c := cluster.New(cluster.Config{N: 4})
	defer c.Close()
	c.LoadRelation(rels[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.LoadRelation(binds)
		b.StartTimer()
		if _, err := proposeRound(c, "round2/propose", rels[1], []string{"a", "b"}, "c", 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.GatherCounts(func(w *cluster.Worker) int64 { return int64(w.LocalSize("bindings")) })), "rows/op")
}
