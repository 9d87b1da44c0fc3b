package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"adj/internal/relation"
)

func TestLoadRelationRoundRobin(t *testing.T) {
	r := relation.New("R", "a")
	for i := relation.Value(0); i < 10; i++ {
		r.Append(i)
	}
	c := New(Config{N: 3})
	defer c.Close()
	c.LoadRelation(r)
	sizes := []int{c.Workers[0].LocalSize("R"), c.Workers[1].LocalSize("R"), c.Workers[2].LocalSize("R")}
	if !reflect.DeepEqual(sizes, []int{4, 3, 3}) {
		t.Fatalf("sizes=%v", sizes)
	}
	total := c.GatherCounts(func(w *Worker) int64 { return int64(w.LocalSize("R")) })
	if total != 10 {
		t.Fatalf("total=%d", total)
	}
}

// Worker i holds one contiguous run of rows, the larger fragments first:
// concatenated in worker order the fragments are r row for row, and they
// own their columns — scribbling over r afterwards changes none of them.
func TestLoadRelationContiguous(t *testing.T) {
	for _, nw := range []int{1, 3, 4, 7} {
		for _, n := range []int{0, 1, nw - 1, nw, 10, 1000} {
			r := relation.New("R", "a", "b")
			for i := 0; i < n; i++ {
				r.Append(relation.Value(i/3), relation.Value(n-i))
			}
			want := r.Clone()
			c := New(Config{N: nw})
			c.LoadRelation(r)
			for _, col := range r.Columns() {
				for i := range col {
					col[i] = -1
				}
			}
			back := relation.New("R", "a", "b")
			for i, w := range c.Workers {
				size := w.LocalSize("R")
				wantSize := n / nw
				if i < n%nw {
					wantSize++
				}
				if size != wantSize {
					t.Fatalf("N=%d n=%d: worker %d holds %d rows, want %d", nw, n, i, size, wantSize)
				}
				back.AppendAll(w.Rels["R"])
			}
			c.Close()
			for j := range want.Columns() {
				if !slices.Equal(back.Column(j), want.Column(j)) {
					t.Fatalf("N=%d n=%d: column %d of the fragments in worker order is %v, want %v", nw, n, j, back.Column(j), want.Column(j))
				}
			}
		}
	}
}

func TestParallelChargesMaxTime(t *testing.T) {
	c := New(Config{N: 4})
	defer c.Close()
	sums := make([]int, c.N)
	err := c.Parallel("work", func(w *Worker) error {
		// Unequal busy loops: worker 3 does ~4x the work.
		n := 1 + w.ID
		s := 0
		for i := 0; i < n*200000; i++ {
			s += i
		}
		sums[w.ID] = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if es := c.Metrics.Entries(); len(es) != 1 || es[0].Kind != ParallelEntry || es[0].Phase != "work" || es[0].Seconds <= 0 {
		t.Fatalf("record = %+v, want one timed parallel entry", es)
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	c := New(Config{N: 2})
	defer c.Close()
	err := c.Parallel("p", func(w *Worker) error {
		if w.ID == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// sendAll streams envs through s in order.
func sendAll(s StreamSender, envs ...Envelope) error {
	for _, e := range envs {
		if err := s.Send(e); err != nil {
			return err
		}
	}
	return nil
}

// drain pulls r to end-of-stream and returns owned copies of every chunk
// (payloads are only valid until the next Recv).
func drain(r StreamReceiver) ([]Envelope, error) {
	var inbox []Envelope
	for {
		e, ok, err := r.Recv()
		if err != nil || !ok {
			return inbox, err
		}
		e.Payload = append([]byte(nil), e.Payload...)
		inbox = append(inbox, e)
	}
}

func TestExchangeRoutesAndCounts(t *testing.T) {
	for _, mode := range []string{"local", "tcp", "sequential", "tcp-sequential"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cfg := Config{N: 3}
			switch mode {
			case "tcp", "tcp-sequential":
				tr, err := NewTCPTransport(3)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Transport = tr
			}
			cfg.Sequential = strings.HasSuffix(mode, "sequential")
			c := New(cfg)
			defer c.Close()
			// Every worker sends its ID to every other worker.
			got := make([][]int, 3)
			err := c.StreamExchange("x",
				func(w *Worker, s StreamSender) error {
					for to := 0; to < 3; to++ {
						if to == w.ID {
							continue
						}
						if err := s.Send(Envelope{To: to, Key: "id", Payload: []byte{byte(w.ID)}, Tuples: 1}); err != nil {
							return err
						}
					}
					return nil
				},
				func(w *Worker, r StreamReceiver) error {
					inbox, err := drain(r)
					for _, e := range inbox {
						got[w.ID] = append(got[w.ID], int(e.Payload[0]))
						if e.From != int(e.Payload[0]) {
							return fmt.Errorf("From field mismatch: %d vs %d", e.From, e.Payload[0])
						}
					}
					return err
				})
			if err != nil {
				t.Fatal(err)
			}
			for id := range got {
				sort.Ints(got[id])
				want := []int{0, 1, 2}
				want = append(want[:id], want[id+1:]...)
				if !reflect.DeepEqual(got[id], want) {
					t.Fatalf("worker %d received %v want %v", id, got[id], want)
				}
			}
			es := c.Metrics.Entries()
			if len(es) != 1 || es[0].Kind != ExchangeEntry || es[0].Phase != "x" {
				t.Fatalf("record = %+v, want one exchange entry", es)
			}
			e := es[0]
			if e.Messages != 6 || e.TuplesSent != 6 || e.BytesSent != 6 || e.StreamChunks != 6 {
				t.Fatalf("metrics: %+v", e)
			}
			// Every worker sends and receives two 1-byte messages: the
			// bottleneck counters the network model prices
			// (costmodel's TestExchangeSeconds prices them).
			if e.MaxServerBytes != 2 || e.MaxServerMessages != 2 {
				t.Fatalf("bottleneck bytes=%d msgs=%d, want 2 and 2", e.MaxServerBytes, e.MaxServerMessages)
			}
		})
	}
}

func TestExchangeRelationPayloadOverTCP(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{N: 2, Transport: tr})
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	orig := relation.New("R", "a", "b")
	for i := 0; i < 500; i++ {
		orig.Append(rng.Int63(), rng.Int63())
	}
	var received atomic.Pointer[relation.Relation]
	err = c.StreamExchange("ship",
		func(w *Worker, s StreamSender) error {
			if w.ID != 0 {
				return nil
			}
			return s.Send(Envelope{To: 1, Key: "rel", Payload: relation.Encode(orig), Tuples: int64(orig.Len())})
		},
		func(w *Worker, r StreamReceiver) error {
			inbox, err := drain(r)
			for _, e := range inbox {
				rel, err := relation.Decode(e.Payload)
				if err != nil {
					return err
				}
				received.Store(rel)
			}
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := received.Load(); got == nil || !got.Equal(orig) {
		t.Fatal("relation did not survive the TCP roundtrip")
	}
}

func TestTCPMultipleExchanges(t *testing.T) {
	// The transport must survive repeated exchanges (one per BSP phase).
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{N: 2, Transport: tr})
	defer c.Close()
	for round := 0; round < 3; round++ {
		var sum atomic.Int64 // consume runs on one goroutine per worker
		err := c.StreamExchange("r",
			func(w *Worker, s StreamSender) error {
				return s.Send(Envelope{To: 1 - w.ID, Payload: []byte{byte(round)}})
			},
			func(w *Worker, r StreamReceiver) error {
				inbox, err := drain(r)
				for _, e := range inbox {
					sum.Add(int64(e.Payload[0]))
				}
				return err
			})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := sum.Load(); got != int64(2*round) {
			t.Fatalf("round %d: sum=%d", round, got)
		}
	}
}

func TestEnvelopeOutOfRange(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		c := New(Config{N: 2, Sequential: sequential})
		err := c.StreamExchange("bad",
			func(w *Worker, s StreamSender) error { return s.Send(Envelope{To: 5}) },
			func(w *Worker, r StreamReceiver) error {
				_, err := drain(r)
				return err
			})
		c.Close()
		if err == nil {
			t.Fatalf("sequential=%v: expected routing error", sequential)
		}
	}
}

func TestMetricsAccumulation(t *testing.T) {
	c := New(Config{N: 2, Sequential: true})
	defer c.Close()
	c.Metrics.Charge("optimize", 1)
	if err := c.Parallel("join", func(w *Worker) error { return nil }); err != nil {
		t.Fatal(err)
	}
	err := c.StreamExchange("shuffle",
		func(w *Worker, s StreamSender) error {
			return s.Send(Envelope{To: 1 - w.ID, Key: "k", Payload: make([]byte, 3), Tuples: 2})
		},
		func(w *Worker, r StreamReceiver) error {
			_, err := drain(r)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	c.Metrics.Charge("optimize", 2)
	// One entry per step, in execution order: a repeated phase name is a
	// second entry, not a merge into the first.
	es := c.Metrics.Entries()
	want := []struct {
		kind  EntryKind
		phase string
	}{{ChargeEntry, "optimize"}, {ParallelEntry, "join"}, {ExchangeEntry, "shuffle"}, {ChargeEntry, "optimize"}}
	if len(es) != len(want) {
		t.Fatalf("record has %d entries, want %d: %+v", len(es), len(want), es)
	}
	for i, w := range want {
		if es[i].Kind != w.kind || es[i].Phase != w.phase {
			t.Fatalf("entry %d = %v %q, want %v %q", i, es[i].Kind, es[i].Phase, w.kind, w.phase)
		}
	}
	if es[0].CompSeconds() != 1 || es[3].CompSeconds() != 2 {
		t.Fatalf("charges = %v, %v", es[0].CompSeconds(), es[3].CompSeconds())
	}
	ex := es[2]
	if ex.TuplesSent != 4 || ex.BytesSent != 6 || ex.Messages != 2 || ex.StreamChunks != 2 ||
		ex.MaxServerBytes != 3 || ex.MaxServerMessages != 1 || ex.Seconds != 0 {
		t.Fatalf("exchange entry %+v", ex)
	}
	if ex.CompSeconds() != ex.SendSeconds+ex.RecvSeconds {
		t.Fatalf("exchange comp %v != send %v + recv %v", ex.CompSeconds(), ex.SendSeconds, ex.RecvSeconds)
	}
	if got := c.Metrics.TotalTuplesSent(); got != 4 {
		t.Fatalf("TotalTuplesSent = %d, want 4", got)
	}
	// The printer walks the record in execution order.
	lines := strings.Split(strings.TrimSpace(c.Metrics.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "charge") || !strings.HasPrefix(lines[2], "exchange") {
		t.Fatalf("String():\n%s", c.Metrics.String())
	}
}

// Payload slabs start small and double up to arenaSlabSize; every payload
// reads back what was copied, and reset keeps only the current slab.
func TestPayloadArenaGrowsGeometrically(t *testing.T) {
	var a payloadArena
	chunk := make([]byte, 1000)
	var copies [][]byte
	for i := 0; i < 1200; i++ {
		for j := range chunk {
			chunk[j] = byte(i + j)
		}
		copies = append(copies, a.copyOf(chunk))
	}
	slabs := append(slices.Clone(a.slabs), a.cur)
	if cap(slabs[0]) != arenaFirstSlab {
		t.Fatalf("first slab holds %d bytes, want %d", cap(slabs[0]), arenaFirstSlab)
	}
	for i := 1; i < len(slabs); i++ {
		if want := min(2*cap(slabs[i-1]), arenaSlabSize); cap(slabs[i]) != want {
			t.Fatalf("slab %d holds %d bytes after one of %d, want %d", i, cap(slabs[i]), cap(slabs[i-1]), want)
		}
	}
	for i, p := range copies {
		if len(p) != len(chunk) || p[0] != byte(i) || p[len(p)-1] != byte(i+len(p)-1) {
			t.Fatalf("payload %d changed after later copies", i)
		}
	}
	big := make([]byte, 3*arenaSlabSize)
	if p := a.copyOf(big); len(p) != len(big) || cap(a.cur) != len(big) {
		t.Fatalf("a payload over the slab size got a slab of %d bytes, want %d", cap(a.cur), len(big))
	}
	cur := cap(a.cur)
	a.reset()
	if len(a.slabs) != 0 || len(a.cur) != 0 || cap(a.cur) != cur {
		t.Fatalf("reset left %d slabs and a current slab of %d/%d bytes, want 0 and 0/%d", len(a.slabs), len(a.cur), cap(a.cur), cur)
	}
}
