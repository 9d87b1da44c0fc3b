package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// streamSettle waits for the goroutine count to return to (near) baseline —
// the leak check after exercising the streaming machinery.
func streamSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// chunkTag renders one received chunk as a comparable line.
func chunkTag(e Envelope) string {
	return fmt.Sprintf("%d|%s|%d|%s", e.From, e.Key, e.Chunk, string(e.Payload))
}

// runStreamCollect runs one StreamExchange in which every worker sends
// `chunks` chunks to every destination and returns, per worker, the sorted
// received chunk tags.
func runStreamCollect(t *testing.T, c *Cluster, phase string, chunks int) [][]string {
	t.Helper()
	got := make([][]string, c.N)
	var mu sync.Mutex
	err := c.StreamExchange(phase,
		func(w *Worker, s StreamSender) error {
			for d := 0; d < c.N; d++ {
				for k := 0; k < chunks; k++ {
					weight := int64(0)
					if k > 0 {
						weight = WeightContinuation
					}
					e := Envelope{
						To:      d,
						Key:     fmt.Sprintf("blk-%d-%d", w.ID, d),
						Chunk:   int32(k),
						Payload: []byte(fmt.Sprintf("p%d.%d.%d", w.ID, d, k)),
						Tuples:  1,
						Weight:  weight,
					}
					if err := s.Send(e); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(w *Worker, r StreamReceiver) error {
			var lines []string
			for {
				e, ok, err := r.Recv()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				lines = append(lines, chunkTag(e))
			}
			sort.Strings(lines)
			mu.Lock()
			got[w.ID] = lines
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatalf("StreamExchange: %v", err)
	}
	return got
}

// TestStreamExchangeParallelMatchesSequential runs the same chunked exchange
// under both schedulings of the one exchange path and requires identical
// delivered content and identical logical counters; both report wire-level
// chunk counters, and only the parallel run is bound by the window.
func TestStreamExchangeParallelMatchesSequential(t *testing.T) {
	const n, chunks = 4, 7
	par := New(Config{N: n})
	defer par.Close()
	seq := New(Config{N: n, Sequential: true})
	defer seq.Close()

	gotPar := runStreamCollect(t, par, "x", chunks)
	gotSeq := runStreamCollect(t, seq, "x", chunks)
	for d := 0; d < n; d++ {
		if len(gotPar[d]) != n*chunks {
			t.Fatalf("worker %d received %d chunks, want %d", d, len(gotPar[d]), n*chunks)
		}
		if strings.Join(gotPar[d], "\n") != strings.Join(gotSeq[d], "\n") {
			t.Fatalf("worker %d: parallel and sequential deliveries differ", d)
		}
	}

	pmPar, pmSeq := par.Metrics.Entries()[0], seq.Metrics.Entries()[0]
	if pmPar.StreamChunks != int64(n*n*chunks) || pmSeq.StreamChunks != pmPar.StreamChunks {
		t.Fatalf("StreamChunks parallel=%d sequential=%d, want %d", pmPar.StreamChunks, pmSeq.StreamChunks, n*n*chunks)
	}
	if pmPar.InflightPeakChunks <= 0 || pmPar.InflightPeakChunks > DefaultStreamWindow {
		t.Fatalf("InflightPeakChunks = %d, want in (0, %d]", pmPar.InflightPeakChunks, DefaultStreamWindow)
	}
	// Identical logical counters either way: chunked weights preserve the
	// one-message-per-block accounting.
	if pmPar.Messages != pmSeq.Messages || pmPar.TuplesSent != pmSeq.TuplesSent || pmPar.BytesSent != pmSeq.BytesSent {
		t.Fatalf("counter drift: parallel (msgs=%d tuples=%d bytes=%d) vs sequential (msgs=%d tuples=%d bytes=%d)",
			pmPar.Messages, pmPar.TuplesSent, pmPar.BytesSent,
			pmSeq.Messages, pmSeq.TuplesSent, pmSeq.BytesSent)
	}
	if pmPar.Messages != int64(n*n) {
		t.Fatalf("Messages = %d, want %d (one per logical block)", pmPar.Messages, n*n)
	}
}

// TestStreamExchangeSequentialDeliveryOrder pins what Sequential mode adds
// on LocalTransport: every receiver sees chunks in (sender, send-order).
func TestStreamExchangeSequentialDeliveryOrder(t *testing.T) {
	const n, chunks = 3, 5
	c := New(Config{N: n, Sequential: true})
	defer c.Close()
	err := c.StreamExchange("x",
		func(w *Worker, s StreamSender) error {
			for k := 0; k < chunks; k++ {
				for d := 0; d < n; d++ {
					if err := s.Send(Envelope{To: d, Chunk: int32(k)}); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(w *Worker, r StreamReceiver) error {
			inbox, err := drain(r)
			if err != nil {
				return err
			}
			if len(inbox) != n*chunks {
				return fmt.Errorf("received %d chunks, want %d", len(inbox), n*chunks)
			}
			for i, e := range inbox {
				if e.From != i/chunks || int(e.Chunk) != i%chunks {
					return fmt.Errorf("position %d holds chunk %d of sender %d", i, e.Chunk, e.From)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamExchangeSequentialExceedsWindow sends far more chunks per
// receiver than DefaultStreamWindow in Sequential mode, where no consumer
// runs until every producer has finished: the exchange must complete over
// both transports instead of deadlocking the first producer on backpressure.
func TestStreamExchangeSequentialExceedsWindow(t *testing.T) {
	const n, chunks = 2, 3 * DefaultStreamWindow
	tcp, err := NewTCPTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]Transport{"local": NewLocalTransport(n), "tcp": tcp} {
		c := New(Config{N: n, Transport: tr, Sequential: true})
		got := runStreamCollect(t, c, "big", chunks) // a deadlock trips the -timeout
		for d := range got {
			if len(got[d]) != n*chunks {
				t.Errorf("%s: worker %d received %d chunks, want %d", name, d, len(got[d]), n*chunks)
			}
		}
		c.Close()
	}
}

// TestStreamBackpressureWindowBounded pushes far more chunks than the
// window at a deliberately slow consumer: the in-flight high-water must
// never exceed the window, and every chunk must still arrive.
func TestStreamBackpressureWindowBounded(t *testing.T) {
	const window, total = 4, 100
	tr := NewLocalTransport(2)
	es, err := tr.OpenExchange(context.Background(), "bp", window)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	done := make(chan error, 1)
	go func() {
		snd := es.Sender(0)
		for k := 0; k < total; k++ {
			if err := snd.Send(Envelope{From: 0, To: 1, Key: "k", Chunk: int32(k), Payload: []byte{byte(k)}}); err != nil {
				done <- err
				return
			}
		}
		done <- snd.Close()
	}()
	go es.Sender(1).Close()

	rcv := es.Receiver(1)
	var got int
	for {
		_, ok, err := rcv.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if !ok {
			break
		}
		got++
		if got%10 == 0 {
			time.Sleep(time.Millisecond) // let the sender run ahead into the window
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if got != total {
		t.Fatalf("received %d chunks, want %d", got, total)
	}
	if s := es.Stats(); s.Chunks != total || s.InflightPeak > window {
		t.Fatalf("stats = %+v, want %d chunks with in-flight peak <= %d", s, total, window)
	}
}

// TestStreamConsumerEarlyReturnDrains has consumers stop reading after one
// chunk while senders push far past the window: the cluster must drain the
// leftovers so no sender deadlocks on backpressure.
func TestStreamConsumerEarlyReturnDrains(t *testing.T) {
	const n = 3
	c := New(Config{N: n})
	defer c.Close()
	err := c.StreamExchange("early",
		func(w *Worker, s StreamSender) error {
			for d := 0; d < n; d++ {
				for k := 0; k < 3*DefaultStreamWindow; k++ {
					if err := s.Send(Envelope{To: d, Key: "k", Chunk: int32(k), Payload: []byte{1}}); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(w *Worker, r StreamReceiver) error {
			_, _, err := r.Recv()
			return err // return after one chunk; the runtime must drain the rest
		})
	if err != nil {
		t.Fatalf("StreamExchange: %v", err)
	}
}

// TestStreamConsumerErrorAttributed fails one consumer mid-stream: the
// phase error must name the recv side and the failing worker, and peer
// errors provoked by the abort must not displace it.
func TestStreamConsumerErrorAttributed(t *testing.T) {
	c := New(Config{N: 3})
	defer c.Close()
	boom := errors.New("boom")
	err := c.StreamExchange("x",
		func(w *Worker, s StreamSender) error {
			for d := 0; d < c.N; d++ {
				for k := 0; k < 2*DefaultStreamWindow; k++ {
					if err := s.Send(Envelope{To: d, Key: "k", Chunk: int32(k), Payload: []byte{9}}); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(w *Worker, r StreamReceiver) error {
			if w.ID == 1 {
				return boom
			}
			for {
				if _, ok, err := r.Recv(); err != nil || !ok {
					return err
				}
			}
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if want := "phase x/recv worker 1:"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry %q", err, want)
	}
}

// TestStreamExchangeContextCancelMidStream cancels the run context while
// chunks are in flight: the exchange must unwind promptly with the parent
// context's error at chunk granularity (not after the stream completes).
func TestStreamExchangeContextCancelMidStream(t *testing.T) {
	c := New(Config{N: 2})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	c.SetContext(ctx)

	var delivered atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- c.StreamExchange("cancel",
			func(w *Worker, s StreamSender) error {
				for k := 0; ; k++ {
					if err := s.Send(Envelope{To: (w.ID + 1) % 2, Key: "k", Chunk: int32(k), Payload: make([]byte, 64)}); err != nil {
						return err
					}
				}
			},
			func(w *Worker, r StreamReceiver) error {
				for {
					if _, ok, err := r.Recv(); err != nil || !ok {
						return err
					}
					delivered.Add(1)
				}
			})
	}()
	for delivered.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not unwind the stream")
	}
}

// TestTCPStreamConcurrentExchanges interleaves many streaming exchanges
// over one TCP transport's persistent connections: every exchange must
// receive exactly its own chunks (the exchange-sequence demux), and the
// dial count stays bounded by n² no matter how many exchanges ran.
func TestTCPStreamConcurrentExchanges(t *testing.T) {
	const n, rounds, concurrent = 3, 4, 6
	baseline := runtime.NumGoroutine()
	tr, err := NewTCPTransport(n)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, concurrent)
		for g := 0; g < concurrent; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tag := fmt.Sprintf("r%d.g%d", round, g)
				bySender := make([][]Envelope, n)
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						for k := 0; k < 5; k++ {
							bySender[s] = append(bySender[s], Envelope{
								From: s, To: d, Key: tag, Chunk: int32(k),
								Payload: []byte(fmt.Sprintf("%s|%d>%d#%d", tag, s, d, k)),
							})
						}
					}
				}
				out, err := routeAll(context.Background(), tr, tag, bySender)
				if err != nil {
					errs[g] = err
					return
				}
				for d := 0; d < n; d++ {
					if len(out[d]) != n*5 {
						errs[g] = fmt.Errorf("%s: worker %d got %d envelopes, want %d", tag, d, len(out[d]), n*5)
						return
					}
					for _, e := range out[d] {
						if e.Key != tag {
							errs[g] = fmt.Errorf("%s: cross-exchange leak: got key %q", tag, e.Key)
							return
						}
						want := fmt.Sprintf("%s|%d>%d#%d", tag, e.From, d, e.Chunk)
						if string(e.Payload) != want {
							errs[g] = fmt.Errorf("%s: payload %q, want %q", tag, e.Payload, want)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	if dials := tr.DialStats(); dials > n*n {
		t.Fatalf("%d dials across %d exchanges; persistent connections should bound this by n²=%d",
			dials, rounds*concurrent, n*n)
	}
	if retries := tr.RetryStats(); retries != 0 {
		t.Fatalf("healthy run performed %d retries", retries)
	}
	tr.Close()
	streamSettle(t, baseline)
}

// TestTCPStreamBackpressure verifies the window bound holds across the real
// wire: a small window against a slow receiver must cap the in-flight
// high-water while every chunk still lands.
func TestTCPStreamBackpressure(t *testing.T) {
	const window, total = 4, 200
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	es, err := tr.OpenExchange(context.Background(), "bp", window)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		snd := es.Sender(0)
		for k := 0; k < total; k++ {
			if snd.Send(Envelope{From: 0, To: 1, Key: "k", Chunk: int32(k), Payload: make([]byte, 1024)}) != nil {
				return
			}
		}
		snd.Close()
	}()
	go es.Sender(1).Close()

	rcv := es.Receiver(1)
	var got int
	for {
		_, ok, err := rcv.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if !ok {
			break
		}
		got++
		if got%20 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if got != total {
		t.Fatalf("received %d chunks, want %d", got, total)
	}
	if s := es.Stats(); s.InflightPeak > window {
		t.Fatalf("in-flight peak %d exceeded window %d", s.InflightPeak, window)
	}
	es.Close()
}

// TestTCPStreamMidStreamCancel cancels an exchange while a sender is
// blocked on backpressure: both halves must unwind with the context error
// and the transport must serve the next exchange cleanly.
func TestTCPStreamMidStreamCancel(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	es, err := tr.OpenExchange(ctx, "cancel", 2)
	if err != nil {
		t.Fatal(err)
	}
	sendErr := make(chan error, 1)
	go func() {
		snd := es.Sender(0)
		for k := 0; ; k++ {
			if err := snd.Send(Envelope{From: 0, To: 1, Key: "k", Chunk: int32(k), Payload: make([]byte, 512)}); err != nil {
				sendErr <- err
				return
			}
		}
	}()

	rcv := es.Receiver(1)
	for i := 0; i < 3; i++ {
		if _, ok, err := rcv.Recv(); err != nil || !ok {
			t.Fatalf("warm-up Recv %d failed: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	var got error
	select {
	case got = <-sendErr:
	case <-time.After(30 * time.Second):
		t.Fatal("blocked sender ignored cancellation")
	}
	// The blocked sender surfaces either the abort cause directly or the
	// typed write error from its killed connection — both acceptable; the
	// receiver below must see the cause itself.
	if !errors.Is(got, context.Canceled) && !errors.Is(got, ErrTransport) {
		t.Fatalf("sender error = %v, want context.Canceled or ErrTransport", got)
	}
	if _, _, err := rcv.Recv(); !errors.Is(err, context.Canceled) {
		t.Fatalf("receiver error = %v, want context.Canceled", err)
	}
	es.Close()

	// The aborted exchange must not poison the next one.
	bySender := make([][]Envelope, 2)
	bySender[0] = []Envelope{{From: 0, To: 1, Key: "next", Payload: []byte("ok")}}
	out, err := routeAll(context.Background(), tr, "next", bySender)
	if err != nil {
		t.Fatalf("follow-up exchange failed: %v", err)
	}
	if len(out[1]) != 1 || out[1][0].Key != "next" {
		t.Fatalf("follow-up delivered %+v", out[1])
	}
}

// TestTCPStreamExchangeSequentialReuse runs many sequential exchanges and
// asserts dial amortization: after the first exchange warms the
// connections, later exchanges dial nothing.
func TestTCPStreamExchangeSequentialReuse(t *testing.T) {
	const n = 2
	tr, err := NewTCPTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	run := func() {
		t.Helper()
		bySender := make([][]Envelope, n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				bySender[s] = append(bySender[s], Envelope{From: s, To: d, Key: "k", Payload: []byte{1, 2}})
			}
		}
		if _, err := routeAll(context.Background(), tr, "", bySender); err != nil {
			t.Fatalf("exchange: %v", err)
		}
	}
	run()
	warm := tr.DialStats()
	if warm == 0 || warm > n*n {
		t.Fatalf("first exchange dialed %d connections, want in (0, %d]", warm, n*n)
	}
	for i := 0; i < 10; i++ {
		run()
	}
	if after := tr.DialStats(); after != warm {
		t.Fatalf("warm exchanges dialed %d new connections (persistent reuse broken)", after-warm)
	}
}
