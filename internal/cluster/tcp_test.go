package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// deadAddr returns a loopback address that refuses connections (a port
// that was bound and released).
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// routeAll drives one whole exchange over tr the way a cluster would:
// every worker streams bySender[worker] through its sender half while every
// worker drains its receiver into owned copies. On failure it returns the
// abort cause as the receivers observed it (else the first sender error).
func routeAll(ctx context.Context, tr Transport, phase string, bySender [][]Envelope) ([][]Envelope, error) {
	es, err := tr.OpenExchange(ctx, phase, 0)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	n := len(bySender)
	out := make([][]Envelope, n)
	sendErrs := make([]error, n)
	recvErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			snd := es.Sender(i)
			sendErrs[i] = sendAll(snd, bySender[i]...)
			snd.Close()
		}(i)
		go func(i int) {
			defer wg.Done()
			out[i], recvErrs[i] = drain(es.Receiver(i))
		}(i)
	}
	wg.Wait()
	for _, err := range append(recvErrs, sendErrs...) {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// routeWithTimeout runs routeAll and fails the test if it hangs — the
// regression this guards against is an exchange blocking forever when a
// sender dies and its receiver keeps waiting for chunks.
func routeWithTimeout(t *testing.T, tr *TCPTransport, bySender [][]Envelope, d time.Duration) ([][]Envelope, error) {
	t.Helper()
	type result struct {
		out [][]Envelope
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := routeAll(context.Background(), tr, "", bySender)
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(d):
		t.Fatal("TCP exchange hung after a sender failure (deadlock regression)")
		return nil, nil
	}
}

// TestTCPExchangeSenderFailureReturnsError kills a sender mid-exchange by
// pointing its destination at a dead address: the dial fails, no
// connection ever reaches the destination's listener, and the exchange
// must surface the sender error instead of hanging.
func TestTCPExchangeSenderFailureReturnsError(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.addrs[1] = deadAddr(t)

	bySender := make([][]Envelope, 2)
	bySender[0] = []Envelope{{From: 0, To: 1, Key: "k", Payload: []byte("payload")}}
	if _, err := routeWithTimeout(t, tr, bySender, 30*time.Second); err == nil {
		t.Fatal("exchange should report the failed sender")
	}
}

// TestTCPExchangePartialSenderFailure mixes healthy and dead destinations:
// the healthy exchange leg completes, the dead one errors, and the exchange
// still returns (with the sender error) instead of deadlocking on the
// receiver that never gets its connection.
func TestTCPExchangePartialSenderFailure(t *testing.T) {
	tr, err := NewTCPTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.addrs[2] = deadAddr(t)

	bySender := make([][]Envelope, 3)
	bySender[0] = []Envelope{
		{From: 0, To: 1, Key: "ok", Payload: []byte("a")},
		{From: 0, To: 2, Key: "dead", Payload: []byte("b")},
	}
	bySender[1] = []Envelope{{From: 1, To: 1, Key: "self", Payload: []byte("c")}}
	if _, err := routeWithTimeout(t, tr, bySender, 30*time.Second); err == nil {
		t.Fatal("exchange should report the failed sender")
	}
}

// TestTCPExchangeRecoversAfterFailure verifies the abort path re-arms the
// listeners: a failed exchange must not poison the next one.
func TestTCPExchangeRecoversAfterFailure(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	good := tr.addrs[1]
	tr.addrs[1] = deadAddr(t)

	bySender := make([][]Envelope, 2)
	bySender[0] = []Envelope{{From: 0, To: 1, Key: "k", Payload: []byte("x")}}
	if _, err := routeWithTimeout(t, tr, bySender, 30*time.Second); err == nil {
		t.Fatal("first exchange should fail")
	}

	tr.addrs[1] = good
	out, err := routeWithTimeout(t, tr, bySender, 30*time.Second)
	if err != nil {
		t.Fatalf("second exchange should succeed: %v", err)
	}
	if len(out[1]) != 1 || out[1][0].Key != "k" || string(out[1][0].Payload) != "x" {
		t.Fatalf("second exchange delivered %+v", out[1])
	}
}

// TestTCPExchangeNoStaleBacklogAfterAbort stresses the abort path for backlog
// contamination: in exchange 1, sender 0→1 dials and writes successfully
// while sender 1→0 fails, so the abort can fire before receiver 1 accepts
// the healthy connection, leaving it in the kernel backlog. Exchange 2 on
// the same transport must never be handed exchange 1's envelopes.
func TestTCPExchangeNoStaleBacklogAfterAbort(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		tr, err := NewTCPTransport(2)
		if err != nil {
			t.Fatal(err)
		}
		good := tr.addrs[0]
		tr.addrs[0] = deadAddr(t)

		first := make([][]Envelope, 2)
		first[0] = []Envelope{{From: 0, To: 1, Key: "OLD", Payload: []byte("stale")}}
		first[1] = []Envelope{{From: 1, To: 0, Key: "doomed", Payload: []byte("x")}}
		if _, err := routeWithTimeout(t, tr, first, 30*time.Second); err == nil {
			tr.Close()
			t.Fatal("first exchange should fail")
		}

		tr.addrs[0] = good
		second := make([][]Envelope, 2)
		second[0] = []Envelope{{From: 0, To: 1, Key: "NEW", Payload: []byte("fresh")}}
		out, err := routeWithTimeout(t, tr, second, 30*time.Second)
		if err != nil {
			tr.Close()
			t.Fatalf("iter %d: second exchange failed: %v", iter, err)
		}
		if len(out[1]) != 1 || out[1][0].Key != "NEW" {
			tr.Close()
			t.Fatalf("iter %d: exchange 2 received stale envelopes: %+v", iter, out[1])
		}
		tr.Close()
	}
}

// TestTCPExchangeNoStaleBacklogBusyReceiver is the harder contamination
// scenario: receiver 1 is kept busy reading a multi-megabyte frame while a
// second, fully-written small connection parks in its accept backlog; the
// abort (triggered by a third, dead destination) kills the big transfer,
// the receiver exits with the small connection still queued, and exchange
// 2 must not be handed its envelopes.
func TestTCPExchangeNoStaleBacklogBusyReceiver(t *testing.T) {
	big := make([]byte, 4<<20)
	for iter := 0; iter < 40; iter++ {
		tr, err := NewTCPTransport(3)
		if err != nil {
			t.Fatal(err)
		}
		good := tr.addrs[2]
		tr.addrs[2] = deadAddr(t)

		first := make([][]Envelope, 3)
		first[0] = []Envelope{{From: 0, To: 1, Key: "OLD-big", Payload: big}}
		first[1] = []Envelope{
			{From: 1, To: 1, Key: "OLD-small", Payload: []byte("stale")},
			{From: 1, To: 2, Key: "doomed", Payload: []byte("x")},
		}
		if _, err := routeWithTimeout(t, tr, first, 30*time.Second); err == nil {
			tr.Close()
			t.Fatal("first exchange should fail")
		}

		tr.addrs[2] = good
		second := make([][]Envelope, 3)
		second[0] = []Envelope{{From: 0, To: 1, Key: "NEW", Payload: []byte("fresh")}}
		out, err := routeWithTimeout(t, tr, second, 30*time.Second)
		if err != nil {
			tr.Close()
			t.Fatalf("iter %d: second exchange failed: %v", iter, err)
		}
		if len(out[1]) != 1 || out[1][0].Key != "NEW" {
			tr.Close()
			t.Fatalf("iter %d: exchange 2 received stale envelopes: %d envs, first key %q",
				iter, len(out[1]), out[1][0].Key)
		}
		tr.Close()
	}
}

// TestTCPRetryStatsCountDialRetries verifies the retry loop: a dead
// destination is retried MaxAttempts times with backoff, the retry counter
// records the extra attempts, and the final error is a typed
// *TransportError carrying the attempt count.
func TestTCPRetryStatsCountDialRetries(t *testing.T) {
	tr, err := NewTCPTransportWithRetry(2, RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.addrs[1] = deadAddr(t)

	bySender := make([][]Envelope, 2)
	bySender[0] = []Envelope{{From: 0, To: 1, Key: "k", Payload: []byte("p")}}
	_, err = routeWithTimeout(t, tr, bySender, 30*time.Second)
	if err == nil {
		t.Fatal("exchange to a dead destination should fail")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("want *TransportError, got %T", err)
	}
	if te.Op != "dial" || te.Dest != 1 || te.Attempts != 3 {
		t.Fatalf("unexpected TransportError: %+v", te)
	}
	if got := tr.RetryStats(); got != 2 {
		t.Fatalf("RetryStats() = %d, want 2 (attempts 2 and 3)", got)
	}
}

// TestTCPExchangeCancelInFlight cancels the context while a sender is
// stuck retrying a dead destination: the exchange must abort promptly and
// return the context's error, classifiable as ErrCanceled.
func TestTCPExchangeCancelInFlight(t *testing.T) {
	tr, err := NewTCPTransportWithRetry(2, RetryPolicy{
		MaxAttempts: 1000, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.addrs[1] = deadAddr(t)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	bySender := make([][]Envelope, 2)
	bySender[0] = []Envelope{{From: 0, To: 1, Key: "k", Payload: []byte("p")}}

	done := make(chan error, 1)
	go func() {
		_, err := routeAll(ctx, tr, "test", bySender)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("exchange ignored in-flight cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestTCPExchangeDeadline gives the exchange a context deadline while
// its only destination is dead: the retry loop must stop at the deadline
// and surface context.DeadlineExceeded instead of spinning through its
// (effectively unbounded) attempt budget.
func TestTCPExchangeDeadline(t *testing.T) {
	tr, err := NewTCPTransportWithRetry(2, RetryPolicy{
		MaxAttempts: 100000, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.addrs[1] = deadAddr(t)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	bySender := make([][]Envelope, 2)
	bySender[0] = []Envelope{{From: 0, To: 1, Key: "k", Payload: []byte("p")}}

	done := make(chan error, 1)
	go func() {
		_, err := routeAll(ctx, tr, "test", bySender)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("exchange ignored its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestTCPCorruptStreamAbortsTyped forges a connection carrying a corrupt
// frame (implausible key length) addressed to an open exchange: the
// exchange must abort with a typed read-side transport error — corruption
// is not retried — and the transport must still serve the next exchange.
func TestTCPCorruptStreamAbortsTyped(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	es, err := tr.OpenExchange(context.Background(), "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", tr.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hd [8]byte
	binary.LittleEndian.PutUint32(hd[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hd[4:], 0) // sender 0
	if _, err := conn.Write(hd[:]); err != nil {
		t.Fatal(err)
	}
	var fh [24]byte
	binary.LittleEndian.PutUint64(fh[0:], es.(*tcpExchange).id)
	binary.LittleEndian.PutUint32(fh[8:], 0)      // from
	binary.LittleEndian.PutUint32(fh[12:], 1)     // to
	binary.LittleEndian.PutUint32(fh[16:], 0)     // chunk
	binary.LittleEndian.PutUint32(fh[20:], 1<<30) // keyLen: beyond bound
	if _, err := conn.Write(fh[:]); err != nil {
		t.Fatal(err)
	}

	recvErr := make(chan error, 1)
	go func() {
		_, _, err := es.Receiver(1).Recv()
		recvErr <- err
	}()
	select {
	case err = <-recvErr:
	case <-time.After(30 * time.Second):
		t.Fatal("receiver did not observe the corrupt-stream abort")
	}
	if err == nil {
		t.Fatal("corrupt stream should abort the exchange")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "read" {
		t.Fatalf("want read-side TransportError, got %v", err)
	}
	es.Close()

	// The poisoned exchange must not break the transport.
	bySender := make([][]Envelope, 2)
	bySender[1] = []Envelope{{From: 1, To: 1, Key: "legit", Payload: []byte("x")}}
	out, err := routeWithTimeout(t, tr, bySender, 30*time.Second)
	if err != nil {
		t.Fatalf("recovery exchange failed: %v", err)
	}
	if len(out[1]) != 1 || out[1][0].Key != "legit" {
		t.Fatalf("recovery exchange delivered %+v", out[1])
	}
}

// TestTCPHostilePayloadLengthBounded forges a well-addressed frame whose
// header claims a 1 GiB payload, sends 16 bytes of it and hangs up. The
// receiver believes a length only as far as bytes arrive: it allocates one
// bounded step (not the gigabyte), its reader goroutine ends with the
// connection, and the transport serves the next exchange.
func TestTCPHostilePayloadLengthBounded(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	es, err := tr.OpenExchange(context.Background(), "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	conn, err := net.Dial("tcp", tr.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	frame = binary.LittleEndian.AppendUint32(frame, tcpMagic)
	frame = binary.LittleEndian.AppendUint32(frame, 0) // sender 0
	frame = binary.LittleEndian.AppendUint64(frame, es.(*tcpExchange).id)
	frame = binary.LittleEndian.AppendUint32(frame, 0)     // from
	frame = binary.LittleEndian.AppendUint32(frame, 1)     // to
	frame = binary.LittleEndian.AppendUint32(frame, 0)     // chunk
	frame = binary.LittleEndian.AppendUint32(frame, 0)     // keyLen
	frame = binary.LittleEndian.AppendUint64(frame, 1)     // tuples
	frame = binary.LittleEndian.AppendUint64(frame, 0)     // weight
	frame = binary.LittleEndian.AppendUint32(frame, 1<<30) // payloadLen: 1 GiB
	frame = append(frame, make([]byte, 16)...)             // ... of which 16 bytes exist
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The reader goroutine exits when it meets the end of the stream.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Fatalf("%d goroutines before the truncated frame, %d after the connection closed", baseline, now)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("a header claiming 1 GiB backed by 16 bytes made the receiver allocate %d bytes, want < 4 MiB", grew)
	}
	es.Close()

	bySender := make([][]Envelope, 2)
	bySender[0] = []Envelope{{From: 0, To: 1, Key: "legit", Payload: bytes.Repeat([]byte("x"), 3*payloadStep+5)}}
	out, err := routeWithTimeout(t, tr, bySender, 30*time.Second)
	if err != nil {
		t.Fatalf("recovery exchange failed: %v", err)
	}
	if len(out[1]) != 1 || out[1][0].Key != "legit" || !bytes.Equal(out[1][0].Payload, bySender[0][0].Payload) {
		t.Fatalf("recovery exchange did not deliver the %d-byte payload intact", len(bySender[0][0].Payload))
	}
}

// fuzzTransport is a TCPTransport with no listeners: enough for serveConn,
// which only looks up exchanges, and cheap enough to make per input. Its
// first exchange has id 1.
func fuzzTransport() *TCPTransport {
	return &TCPTransport{n: 2, exchanges: make(map[uint64]*tcpExchange)}
}

// capturedFrames returns what a worker-0 connection to worker 1 carries for
// two chunks of exchange 1: the connection header, then the frames
// writeFrame puts on the wire.
func capturedFrames(t testing.TB) []byte {
	tr := fuzzTransport()
	es, err := tr.OpenExchange(context.Background(), "capture", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	client, server := net.Pipe()
	wire := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(server)
		wire <- b
	}()
	var hd []byte
	hd = binary.LittleEndian.AppendUint32(hd, tcpMagic)
	hd = binary.LittleEndian.AppendUint32(hd, 0)
	if _, err := client.Write(hd); err != nil {
		t.Fatal(err)
	}
	wc := &wconn{conn: client}
	for k, payload := range []string{"first chunk", ""} {
		e := Envelope{From: 0, To: 1, Key: "R@1", Chunk: int32(k), Payload: []byte(payload), Tuples: 3, Weight: 1}
		if err := wc.writeFrame(es.(*tcpExchange), e); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	return <-wire
}

// FuzzTCPFrame feeds bytes to one inbound connection's demux reader
// (serveConn, at worker 1) over net.Pipe while exchange 1 is registered and
// its receiver drains. Whatever the bytes, the reader does not panic and
// returns once they run out, and if it aborted the exchange the cause is a
// typed transport error. The corpus in testdata/fuzz/FuzzTCPFrame holds the
// hostile lengths of TestTCPCorruptStreamAbortsTyped and
// TestTCPHostilePayloadLengthBounded, a bad magic and bad addressing.
func FuzzTCPFrame(f *testing.F) {
	frames := capturedFrames(f)
	f.Add(frames)
	f.Add(frames[:len(frames)-5])
	f.Fuzz(func(t *testing.T, in []byte) {
		tr := fuzzTransport()
		es, err := tr.OpenExchange(context.Background(), "fuzz", 0)
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			r := es.Receiver(1)
			for {
				if _, ok, err := r.Recv(); err != nil || !ok {
					return
				}
			}
		}()
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr.serveConn(1, server)
			server.Close()
		}()
		go func() {
			client.Write(in)
			client.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the frame reader did not return")
		}
		if err := es.(*tcpExchange).err(); err != nil && !errors.Is(err, ErrTransport) {
			t.Fatalf("the reader aborted the exchange with %v, want a transport error", err)
		}
		es.Close()
		<-drained
	})
}
