package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPTransport moves envelopes over real loopback TCP sockets. It exists
// to keep the serialization and wire path honest: integration tests run
// the full join engines over it and must produce byte-identical results to
// the local transport. Its exchanges are the same exchange core as
// LocalTransport's (queues, window, abort, completion, receivers); what
// TCP adds is how a chunk reaches its destination's queue: the sender
// writes a frame, and the destination's demux reader queues it.
//
// Connection discipline (the serving-scale contract):
//
//   - One long-lived connection per (sender, destination) pair per
//     transport lifetime: lazily dialed on first use, reused by every
//     subsequent exchange, and healed (re-dialed on next use) after an
//     error tears it down. Dials retry with capped exponential backoff
//     plus seeded jitter up to RetryPolicy.MaxAttempts; exhaustion aborts
//     the exchange with a typed *TransportError.
//   - Exchange frames are multiplexed over the shared connections by the
//     transport-local exchange sequence number. The receive side demuxes
//     each frame into the addressed exchange's bounded per-destination
//     chunk queue (blocking the connection reader when the queue is full,
//     so backpressure propagates to the sender through TCP flow control).
//     Frames addressed to an exchange that is not registered — one that
//     already completed or aborted — are discarded silently; an active
//     exchange always registers before its senders emit.
//   - A write failure mid-stream cannot be retried: earlier chunks of the
//     stream may already have been consumed by the receiver, so the
//     transport tears the connection down and aborts the exchange with a
//     typed transient *TransportError. Recovery is the caller's re-run
//     (session retry), which finds the connection healed by lazy redial.
//   - OpenExchange observes its context: a deadline becomes a per-write
//     deadline and bounds dial attempts; in-flight cancellation aborts the
//     exchange at chunk granularity, as on every transport. An abort also
//     wakes dial backoffs and tears down connections still writing for
//     the exchange.
//   - Frame-level protocol violations (implausible lengths, bad
//     addressing — a corrupt stream) abort the addressed exchange with a
//     typed error and close the connection; retrying cannot repair
//     corrupt bytes.
//
// Wire layout (little-endian):
//
//	conn header: u32 magic | u32 sender        (once per connection)
//	frame:       u64 exchange | u32 from | u32 to | u32 chunk |
//	             u32 keyLen | key | u64 tuples | u64 weight |
//	             u32 payloadLen | payload
type TCPTransport struct {
	n         int
	listeners []net.Listener
	addrs     []string
	retry     RetryPolicy

	seq     atomic.Uint64
	retries atomic.Int64
	dials   atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand

	connMu sync.Mutex
	slots  map[pairKey]*connSlot

	exMu      sync.Mutex
	exchanges map[uint64]*tcpExchange

	inMu     sync.Mutex
	inConns  map[net.Conn]struct{}
	inClosed bool

	acceptWG sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

type pairKey struct{ s, d int }

// connSlot holds the persistent connection of one worker pair. dialMu
// serializes dialing so concurrent Sends for the same pair share one dial.
type connSlot struct {
	dialMu sync.Mutex
	mu     sync.Mutex
	wc     *wconn
}

// RetryPolicy bounds the transport's dial retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of dial attempts per connection
	// (1 = no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt, capped at MaxDelay, with ±50% seeded jitter.
	BaseDelay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
	// DialTimeout bounds a single dial attempt (tightened further by a
	// context deadline when one is set).
	DialTimeout time.Duration
	// Seed makes the jitter deterministic (0 uses a fixed default seed —
	// the transport is deterministic unless explicitly seeded otherwise).
	Seed int64
}

// DefaultRetryPolicy is the production default: 3 attempts, 2ms base
// backoff capped at 250ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 250 * time.Millisecond, DialTimeout: 5 * time.Second}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = d.DialTimeout
	}
	return p
}

// NewTCPTransport starts n loopback listeners (one per worker) with the
// default retry policy.
func NewTCPTransport(n int) (*TCPTransport, error) {
	return NewTCPTransportWithRetry(n, DefaultRetryPolicy())
}

// NewTCPTransportWithRetry starts n loopback listeners with an explicit
// retry policy.
func NewTCPTransportWithRetry(n int, policy RetryPolicy) (*TCPTransport, error) {
	policy = policy.withDefaults()
	t := &TCPTransport{
		n:         n,
		retry:     policy,
		rng:       rand.New(rand.NewSource(policy.Seed + 1)),
		slots:     make(map[pairKey]*connSlot),
		exchanges: make(map[uint64]*tcpExchange),
		inConns:   make(map[net.Conn]struct{}),
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("tcp transport: listen worker %d: %w", i, err)
		}
		t.listeners = append(t.listeners, l)
		t.addrs = append(t.addrs, l.Addr().String())
	}
	for i := range t.listeners {
		t.acceptWG.Add(1)
		go t.acceptLoop(i)
	}
	return t, nil
}

// RetryStats returns the cumulative dial retry count (RetryCounter).
func (t *TCPTransport) RetryStats() int64 { return t.retries.Load() }

// DialStats returns the cumulative successful dial count (DialCounter).
// With persistent connections it is bounded by n² per transport lifetime
// unless connections are torn down by faults.
func (t *TCPTransport) DialStats() int64 { return t.dials.Load() }

// backoff returns the jittered exponential delay before retry `attempt`
// (1-based: the delay after the attempt-th failure).
func (t *TCPTransport) backoff(attempt int) time.Duration {
	d := t.retry.BaseDelay << (attempt - 1)
	if d > t.retry.MaxDelay || d <= 0 {
		d = t.retry.MaxDelay
	}
	t.rngMu.Lock()
	jitter := 0.5 + t.rng.Float64() // ±50% around the nominal delay
	t.rngMu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// OpenExchange registers a streaming exchange and returns its stream. The
// exchange is registered before any sender can emit, so its frames are
// never mistaken for stale traffic.
func (t *TCPTransport) OpenExchange(ctx context.Context, phase string, window int) (ExchangeStream, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, &TransportError{Op: "open", Dest: -1, Err: errors.New("transport closed")}
	}
	t.mu.Unlock()
	tx := &tcpExchange{t: t, id: t.seq.Add(1), abortCh: make(chan struct{})}
	tx.deadline, tx.hasDeadline = ctx.Deadline()
	tx.exchange = newExchange(ctx, t.n, window, tx)
	t.exMu.Lock()
	t.exchanges[tx.id] = tx
	t.exMu.Unlock()
	return tx, nil
}

// getConn returns the persistent connection for (s, d), dialing it (with
// retry/backoff) if absent or previously broken.
func (t *TCPTransport) getConn(ex *tcpExchange, s, d int) (*wconn, error) {
	key := pairKey{s, d}
	t.connMu.Lock()
	slot := t.slots[key]
	if slot == nil {
		slot = &connSlot{}
		t.slots[key] = slot
	}
	t.connMu.Unlock()

	slot.dialMu.Lock()
	defer slot.dialMu.Unlock()
	slot.mu.Lock()
	wc := slot.wc
	slot.mu.Unlock()
	if wc != nil && !wc.broken.Load() {
		return wc, nil
	}
	wc, err := t.dialConn(ex, s, d)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	slot.wc = wc
	slot.mu.Unlock()
	return wc, nil
}

func (t *TCPTransport) dialConn(ex *tcpExchange, s, d int) (*wconn, error) {
	var lastErr error
	for attempt := 1; attempt <= t.retry.MaxAttempts; attempt++ {
		if err := ex.err(); err != nil {
			return nil, err
		}
		if attempt > 1 {
			t.retries.Add(1)
			select {
			case <-ex.abortCh:
				return nil, ex.err()
			case <-time.After(t.backoff(attempt - 1)):
			}
		}
		dialTimeout := t.retry.DialTimeout
		if ex.hasDeadline {
			if until := time.Until(ex.deadline); until < dialTimeout {
				dialTimeout = until
			}
		}
		if dialTimeout <= 0 {
			lastErr = context.DeadlineExceeded
			continue
		}
		conn, err := net.DialTimeout("tcp", t.addrs[d], dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		var hd [8]byte
		binary.LittleEndian.PutUint32(hd[0:], tcpMagic)
		binary.LittleEndian.PutUint32(hd[4:], uint32(s))
		if _, err := conn.Write(hd[:]); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		t.dials.Add(1)
		return &wconn{conn: conn}, nil
	}
	return nil, &TransportError{Op: "dial", Dest: d, Attempts: t.retry.MaxAttempts, Err: lastErr}
}

// killWriters tears down connections currently writing for exchange id
// (part of abort: unblocks a sender stuck in a write the receiver will
// never drain). The torn connection heals by lazy redial on next use.
func (t *TCPTransport) killWriters(id uint64) {
	t.connMu.Lock()
	var victims []*wconn
	for _, slot := range t.slots {
		slot.mu.Lock()
		wc := slot.wc
		slot.mu.Unlock()
		if wc != nil && wc.writing.Load() == id {
			victims = append(victims, wc)
		}
	}
	t.connMu.Unlock()
	for _, wc := range victims {
		wc.fail()
	}
}

func (t *TCPTransport) lookupExchange(id uint64) *tcpExchange {
	t.exMu.Lock()
	ex := t.exchanges[id]
	t.exMu.Unlock()
	return ex
}

func (t *TCPTransport) unregister(id uint64) {
	t.exMu.Lock()
	delete(t.exchanges, id)
	t.exMu.Unlock()
}

// acceptLoop accepts inbound connections for worker d and spawns a demux
// reader per connection.
func (t *TCPTransport) acceptLoop(d int) {
	defer t.acceptWG.Done()
	for {
		conn, err := t.listeners[d].Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		t.inMu.Lock()
		if t.inClosed {
			t.inMu.Unlock()
			conn.Close()
			return
		}
		t.inConns[conn] = struct{}{}
		t.inMu.Unlock()
		t.acceptWG.Add(1)
		go func() {
			defer t.acceptWG.Done()
			t.serveConn(d, conn)
			t.inMu.Lock()
			delete(t.inConns, conn)
			t.inMu.Unlock()
			conn.Close()
		}()
	}
}

// serveConn demuxes one inbound connection's frames into their exchanges'
// receive queues. Receive payload buffers are pooled per connection and
// returned by the receiver after decode adoption (the payload handed to
// Recv is only valid until the next Recv). Pushing into a full queue
// blocks the reader — backpressure reaches the sender via TCP flow
// control.
func (t *TCPTransport) serveConn(d int, conn net.Conn) {
	var hd [8]byte
	if _, err := io.ReadFull(conn, hd[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hd[0:]) != tcpMagic {
		return
	}
	if sender := int(binary.LittleEndian.Uint32(hd[4:])); sender < 0 || sender >= t.n {
		return
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	pool := &bufPool{}
	var fh [24]byte
	var tail [20]byte
	for {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return
		}
		exchID := binary.LittleEndian.Uint64(fh[0:])
		from := int(binary.LittleEndian.Uint32(fh[8:]))
		to := int(binary.LittleEndian.Uint32(fh[12:]))
		chunk := int32(binary.LittleEndian.Uint32(fh[16:]))
		keyLen := binary.LittleEndian.Uint32(fh[20:])
		ex := t.lookupExchange(exchID)
		if keyLen > 1<<20 {
			t.abortProto(ex, d, fmt.Errorf("%w: implausible key length %d", errProtocol, keyLen))
			return
		}
		key := make([]byte, keyLen)
		if _, err := io.ReadFull(br, key); err != nil {
			return
		}
		if _, err := io.ReadFull(br, tail[:]); err != nil {
			return
		}
		tuples := int64(binary.LittleEndian.Uint64(tail[0:]))
		weight := int64(binary.LittleEndian.Uint64(tail[8:]))
		plen := binary.LittleEndian.Uint32(tail[16:])
		if plen > 1<<31 {
			t.abortProto(ex, d, fmt.Errorf("%w: implausible payload length %d", errProtocol, plen))
			return
		}
		if from < 0 || from >= t.n || to != d {
			t.abortProto(ex, d, fmt.Errorf("%w: bad addressing from=%d to=%d at worker %d", errProtocol, from, to, d))
			return
		}
		if ex == nil {
			// Completed, aborted, or never-registered exchange: stale
			// traffic, discarded without disturbing the connection.
			if _, err := br.Discard(int(plen)); err != nil {
				return
			}
			continue
		}
		buf, err := readPayload(br, pool, int(plen))
		if err != nil {
			return
		}
		env := Envelope{
			From: from, To: to, Key: string(key), Payload: buf,
			Tuples: tuples, Weight: weight, Chunk: chunk,
		}
		ex.deliver(env, func() { pool.put(buf) })
	}
}

// payloadStep is the most a frame's length field alone can make the
// receiver allocate.
const payloadStep = 1 << 20

// readPayload reads a frame's plen payload bytes into a pooled buffer. The
// length came off the wire, so it is believed only as far as bytes back it
// up: the buffer starts at min(plen, payloadStep) and doubles each time the
// sender has filled it, and a corrupt or hostile header followed by a
// short stream costs one step, not plen.
func readPayload(br *bufio.Reader, pool *bufPool, plen int) ([]byte, error) {
	buf := pool.get(min(plen, payloadStep))
	got := 0
	for {
		if _, err := io.ReadFull(br, buf[got:]); err != nil {
			pool.put(buf)
			return nil, err
		}
		got = len(buf)
		if got == plen {
			return buf, nil
		}
		grown := pool.get(min(plen, 2*got))
		copy(grown, buf)
		pool.put(buf)
		buf = grown
	}
}

// abortProto handles a frame-level protocol violation: the addressed
// exchange (when identifiable and active) aborts with a typed read error;
// the connection is closed by the caller either way.
func (t *TCPTransport) abortProto(ex *tcpExchange, d int, err error) {
	if ex != nil {
		ex.Abort(&TransportError{Op: "read", Dest: d, Err: err})
	}
}

// Close shuts down listeners, persistent connections, and any in-flight
// exchanges, then waits for the demux goroutines to settle.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	t.exMu.Lock()
	exs := make([]*tcpExchange, 0, len(t.exchanges))
	for _, ex := range t.exchanges {
		exs = append(exs, ex)
	}
	t.exMu.Unlock()
	for _, ex := range exs {
		ex.Abort(&TransportError{Op: "close", Dest: -1, Err: errors.New("transport closed")})
	}

	var first error
	for _, l := range t.listeners {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.connMu.Lock()
	for _, slot := range t.slots {
		slot.mu.Lock()
		if slot.wc != nil {
			slot.wc.fail()
		}
		slot.mu.Unlock()
	}
	t.connMu.Unlock()
	t.inMu.Lock()
	t.inClosed = true
	for c := range t.inConns {
		c.Close()
	}
	t.inMu.Unlock()
	t.acceptWG.Wait()
	return first
}

// wconn is one persistent outbound connection. A mutex serializes frame
// writes (exchanges multiplex whole frames); writing publishes the
// exchange currently holding the writer so an abort can tear down a
// blocked write.
type wconn struct {
	conn        net.Conn
	mu          sync.Mutex
	scratch     []byte
	curDeadline time.Time
	writing     atomic.Uint64
	broken      atomic.Bool
}

var errConnBroken = errors.New("tcp transport: connection broken")

func (wc *wconn) fail() {
	wc.broken.Store(true)
	wc.conn.Close()
}

func (wc *wconn) writeFrame(ex *tcpExchange, e Envelope) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.broken.Load() {
		return errConnBroken
	}
	wc.writing.Store(ex.id)
	defer wc.writing.Store(0)
	if ex.hasDeadline {
		if !wc.curDeadline.Equal(ex.deadline) {
			wc.conn.SetWriteDeadline(ex.deadline)
			wc.curDeadline = ex.deadline
		}
	} else if !wc.curDeadline.IsZero() {
		wc.conn.SetWriteDeadline(time.Time{})
		wc.curDeadline = time.Time{}
	}
	buf := wc.scratch[:0]
	var b4 [4]byte
	var b8 [8]byte
	p32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b4[:], v)
		buf = append(buf, b4[:]...)
	}
	p64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		buf = append(buf, b8[:]...)
	}
	p64(ex.id)
	p32(uint32(e.From))
	p32(uint32(e.To))
	p32(uint32(e.Chunk))
	p32(uint32(len(e.Key)))
	buf = append(buf, e.Key...)
	p64(uint64(e.Tuples))
	p64(uint64(e.Weight))
	p32(uint32(len(e.Payload)))
	wc.scratch = buf[:0]
	if _, err := wc.conn.Write(buf); err != nil {
		wc.fail()
		return err
	}
	if len(e.Payload) > 0 {
		if _, err := wc.conn.Write(e.Payload); err != nil {
			wc.fail()
			return err
		}
	}
	return nil
}

// tcpExchange is one registered exchange: the shared exchange core plus
// what the wire needs — the exchange id every frame carries, the write
// deadline, and the abort channel a dial backoff waits on. It is the
// core's link: a sent chunk is written as a frame, and the destination's
// demux reader (serveConn) queues it.
type tcpExchange struct {
	*exchange
	t           *TCPTransport
	id          uint64
	deadline    time.Time
	hasDeadline bool
	abortCh     chan struct{}
}

func (tx *tcpExchange) carry(_ *exchange, from int, e Envelope) error {
	if err := tx.err(); err != nil {
		return err
	}
	wc, err := tx.t.getConn(tx, from, e.To)
	if err != nil {
		return err
	}
	if err := wc.writeFrame(tx, e); err != nil {
		return &TransportError{Op: "write", Dest: e.To, Attempts: 1, Err: err}
	}
	return nil
}

// onAbort wakes dial backoffs and tears down connections still writing
// for the exchange (a sender stuck in a write the receiver will never
// drain).
func (tx *tcpExchange) onAbort() {
	close(tx.abortCh)
	tx.t.killWriters(tx.id)
}

// onClose unregisters the exchange: later frames for it are stale traffic.
func (tx *tcpExchange) onClose() { tx.t.unregister(tx.id) }

// bufPool is a per-connection free list of receive payload buffers: the
// demux reader gets, the receiving worker puts back after decode adoption.
type bufPool struct {
	mu   sync.Mutex
	bufs [][]byte
}

const (
	bufPoolMin  = 4096
	bufPoolKeep = 8
)

func (p *bufPool) get(n int) []byte {
	p.mu.Lock()
	for i := len(p.bufs) - 1; i >= 0; i-- {
		if cap(p.bufs[i]) >= n {
			b := p.bufs[i][:n]
			p.bufs = append(p.bufs[:i], p.bufs[i+1:]...)
			p.mu.Unlock()
			return b
		}
	}
	p.mu.Unlock()
	c := n
	if c < bufPoolMin {
		c = bufPoolMin
	}
	return make([]byte, n, c)
}

func (p *bufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.bufs) < bufPoolKeep {
		p.bufs = append(p.bufs, b[:0])
	}
	p.mu.Unlock()
}

// tcpMagic opens every connection header ("AJX2" — protocol v2:
// persistent multiplexed streaming).
const tcpMagic = 0x414A5832

// errProtocol classifies frame-level violations: implausible lengths or a
// malformed stream. Unlike transient I/O errors, these abort the exchange
// (the bytes are corrupt; a retry cannot repair them).
var errProtocol = errors.New("tcp transport: protocol violation")
