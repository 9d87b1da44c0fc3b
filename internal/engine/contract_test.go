package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adj/internal/cluster"
	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/contract.golden from the current engines")

// contractInstance is one (query, database) pair of the contract matrix.
type contractInstance struct {
	name string
	q    hypergraph.Query
	rels []*relation.Relation
}

// contractInstances returns the matrix's instances: Q1–Q6 on two seeded
// graphs, a disconnected query (a cross product for the binary engines, an
// unconstrained propose round for BigJoin) and a query over ternary
// relations of unequal sizes.
func contractInstances(t testing.TB) []contractInstance {
	var out []contractInstance
	graphs := []*relation.Relation{
		testutil.RandEdges(rand.New(rand.NewSource(1)), "E", 300, 30),
		testutil.RandEdges(rand.New(rand.NewSource(2)), "E", 900, 60),
	}
	for gi, g := range graphs {
		for _, q := range hypergraph.AllQueries()[:6] {
			out = append(out, contractInstance{fmt.Sprintf("%s/g%d", q.Name, gi), q, q.BindGraph(g)})
		}
	}
	rng := rand.New(rand.NewSource(3))
	adhoc := []struct {
		query string
		sizes []int
	}{
		{"Qdisc :- R(a,b) ⋈ S(c,d)", []int{60, 40}},
		{"Qtern :- R(a,b,c) ⋈ S(b,c,d) ⋈ T(a,d,e)", []int{400, 150, 300}},
	}
	for _, a := range adhoc {
		q, err := hypergraph.ParseQuery(a.query)
		if err != nil {
			t.Fatal(err)
		}
		rels := make([]*relation.Relation, len(q.Atoms))
		for i, at := range q.Atoms {
			rels[i] = testutil.RandRelation(rng, at.Name, at.Attrs, a.sizes[i], 8).SortDedup()
		}
		out = append(out, contractInstance{q.Name, q, rels})
	}
	return out
}

// contractLine renders one run as the contract's golden line: the plan
// label, every Report count, each record entry's phase, kind, tuples, bytes
// and messages, and a SHA-256 of the output rows in order. It holds no
// seconds, and none of the transport's gauges (TransportDials,
// RecvPeakBytes), which measure the wire rather than the run.
//
// With arrival false the line drops what depends on the order chunks from
// different senders arrive in — bytes, whole and per entry, and row order
// (the digest is taken over the sorted rows) — which only a Sequential run
// on LocalTransport replays (README.md, "Determinism contract").
func contractLine(engine, inst string, n int, mem int64, rep Report, arrival bool) string {
	var b strings.Builder
	bytes := func(v int64) string {
		if !arrival {
			return "~"
		}
		return fmt.Sprint(v)
	}
	out := rep.Output
	if !arrival && out != nil {
		out = out.Clone().Sort()
	}
	fmt.Fprintf(&b, "%s %s N=%d mem=%d: plan=%q results=%d tuples=%d bytes=%s msgs=%d chunks=%d"+
		" blocks=%d builds=%d hits=%d runs=%d values=%d failed=%v reason=%q panics=%d retries=%d out=%s rec=[",
		engine, inst, n, mem, rep.Plan, rep.Results, rep.TuplesShuffled, bytes(rep.BytesShuffled), rep.Messages,
		rep.StreamChunks, rep.CacheBlocks, rep.TrieBuilds, rep.TrieCacheHits, rep.EmittedRuns, rep.EmittedValues,
		rep.Failed, rep.FailReason, rep.PanicsRecovered, rep.TransportRetries, outputDigest(out))
	for i, e := range rep.Metrics.Entries() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s/%s/%d/%s/%d", e.Phase, e.Kind, e.TuplesSent, bytes(e.BytesSent), e.Messages)
	}
	b.WriteByte(']')
	return b.String()
}

// outputDigest is a SHA-256 over the output's schema and its rows in order
// ("-" without output).
func outputDigest(out *relation.Relation) string {
	if out == nil {
		return "-"
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v\n", out.Attrs)
	var buf [8]byte
	cols := out.Columns()
	for i := 0; i < out.Len(); i++ {
		for _, col := range cols {
			binary.LittleEndian.PutUint64(buf[:], uint64(col[i]))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// contractTCPInstances are the instances the contract repeats over loopback
// TCPTransport, for every engine at N ∈ {1, 4} without a memory bound: one
// catalog query and both ad-hoc queries. At N = 1 the TCP line must equal
// the LocalTransport line; at N = 4 a receiver's chunks from different
// senders interleave as the sockets deliver them, so the lines are compared
// without their arrival-order fields.
var contractTCPInstances = []string{"Q1/g0", "Qdisc", "Qtern"}

// TestContract is the engines' behaviour contract: every engineTable row ×
// contractInstances × N ∈ {1, 4} × MemoryPerServer ∈ {0, 5000}, run
// Sequential with CollectOutput, one sorted line per run (contractLine) in
// testdata/contract.golden. A change that moves a plan, a count, a record
// entry or a row shows as a diff there; a change that claims none leaves
// the file alone. The declared TCP subset must also read exactly as its
// LocalTransport lines over loopback sockets. Regenerate with
// go test ./internal/engine/ -run TestContract -update.
func TestContract(t *testing.T) {
	insts := contractInstances(t)
	var lines []string
	local := make(map[string]Report)
	for _, e := range engineTable {
		for _, inst := range insts {
			for _, n := range []int{1, 4} {
				for _, mem := range []int64{0, 5000} {
					cfg := smallCfg(n)
					cfg.MemoryPerServer, cfg.Sequential, cfg.CollectOutput = mem, true, true
					rep, err := Run(e.name, inst.q, inst.rels, cfg)
					if err != nil {
						t.Fatalf("%s %s N=%d mem=%d: %v", e.name, inst.name, n, mem, err)
					}
					lines = append(lines, contractLine(e.name, inst.name, n, mem, rep, true))
					if mem == 0 && slices.Contains(contractTCPInstances, inst.name) {
						local[fmt.Sprintf("%s %s %d", e.name, inst.name, n)] = rep
					}
				}
			}
		}
	}
	slices.Sort(lines)
	testutil.Golden(t, filepath.Join("testdata", "contract.golden"), []byte(strings.Join(lines, "\n")+"\n"), *update)

	for _, n := range []int{1, 4} {
		tr, err := cluster.NewTCPTransport(n)
		if err != nil {
			t.Fatal(err)
		}
		c := cluster.New(cluster.Config{N: n, Transport: tr, Sequential: true})
		defer c.Close()
		for _, e := range engineTable {
			for _, inst := range insts {
				lrep, ok := local[fmt.Sprintf("%s %s %d", e.name, inst.name, n)]
				if !ok {
					continue
				}
				cfg := smallCfg(n)
				cfg.Cluster, cfg.Sequential, cfg.CollectOutput = c, true, true
				rep, err := Run(e.name, inst.q, inst.rels, cfg)
				if err != nil {
					t.Fatalf("%s %s N=%d over TCP: %v", e.name, inst.name, n, err)
				}
				arrival := n == 1
				got, want := contractLine(e.name, inst.name, n, 0, rep, arrival), contractLine(e.name, inst.name, n, 0, lrep, arrival)
				if got != want {
					t.Errorf("TCP line differs from LocalTransport's\n  tcp: %s\nlocal: %s", got, want)
				}
			}
		}
	}
}
