package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Envelope is one logical message between workers. Payload is an opaque
// serialized blob (relation block, trie block, or control data); Tuples
// records how many logical tuples it carries for metric accounting, and
// Weight how many logical envelopes it represents (Push-style shuffles
// batch physically but count per-tuple messages). Chunk is the ordinal of
// this envelope within a chunked stream of one logical block: receivers
// that deduplicate by key must include it, and continuation chunks carry
// Weight < 0 so a chunked block still counts as one logical message.
type Envelope struct {
	From    int
	To      int
	Key     string
	Payload []byte
	Tuples  int64
	Weight  int64
	Chunk   int32
}

// WeightContinuation marks an envelope as a continuation chunk of a block
// whose first chunk already carried the block's logical message weight.
const WeightContinuation int64 = -1

// MsgWeight returns the logical message count of e (min 1, except
// continuation chunks which count 0).
func (e Envelope) MsgWeight() int64 {
	if e.Weight < 0 {
		return 0
	}
	if e.Weight > 0 {
		return e.Weight
	}
	return 1
}

// Transport moves envelopes between workers, one streaming exchange at a
// time. An exchange must either deliver every chunk to its destination's
// receiver with payload bytes preserved exactly, or fail every blocked and
// future Send/Recv with an error — partial or corrupted delivery without an
// error is a contract violation (the engines would silently compute wrong
// results).
type Transport interface {
	// OpenExchange starts a multiplexed exchange in which senders emit
	// bounded chunks and receivers pull them through a window of at most
	// `window` in-flight chunks per receiver (backpressure propagates to
	// senders; window <= 0 uses DefaultStreamWindow). ctx carries the run's
	// deadline and in-flight cancellation; phase names the exchange for
	// metrics and fault injection.
	OpenExchange(ctx context.Context, phase string, window int) (ExchangeStream, error)
	// Close releases transport resources.
	Close() error
}

// RetryCounter is implemented by transports that retry failed operations;
// RetryStats returns the cumulative retry count, which StreamExchange
// diffs around each exchange to charge retries to the run's metrics.
type RetryCounter interface {
	RetryStats() int64
}

// DialCounter is implemented by transports that open connections lazily;
// DialStats returns the cumulative successful dial count, which the
// cluster diffs around each run so reports can show connection reuse
// (persistent transports amortize dials across exchanges).
type DialCounter interface {
	DialStats() int64
}

// StreamSender is one worker's sending half of a streaming exchange. Send
// delivers a single bounded chunk and may block under backpressure (the
// receiver's in-flight window is full). Close ends the worker's outgoing
// stream; every sender must be closed — including senders that sent
// nothing — before receivers observe end-of-stream.
type StreamSender interface {
	Send(e Envelope) error
	Close() error
}

// StreamReceiver is one worker's pull iterator over incoming chunks. Recv
// blocks until a chunk arrives, the stream ends (ok=false), or the
// exchange aborts (err != nil). The returned payload is only valid until
// the next Recv call: transports pool receive buffers, so consumers must
// decode or copy before pulling again.
type StreamReceiver interface {
	Recv() (e Envelope, ok bool, err error)
}

// ExchangeStream is one in-flight streaming exchange: per-worker sender
// and receiver halves multiplexed over the transport, with chunk
// granularity cancellation via Abort. Close releases the exchange
// (aborting it if still active) and must always be called.
type ExchangeStream interface {
	Sender(worker int) StreamSender
	Receiver(worker int) StreamReceiver
	// Abort cancels the exchange: blocked Send/Recv calls on every worker
	// return cause (first abort wins). Safe to call concurrently.
	Abort(cause error)
	// Stats reports wire-level counters accumulated so far.
	Stats() StreamStats
	Close() error
}

// StreamStats are wire-level counters for one streaming exchange.
type StreamStats struct {
	// Chunks is the number of chunk envelopes delivered to receivers.
	Chunks int64
	// InflightPeak is the high-water mark of chunks queued at any single
	// receiver (bounded by the exchange window).
	InflightPeak int64
	// RecvPeakBytes is the high-water mark of payload bytes queued at any
	// single receiver — the streamed path's peak receive-side memory.
	RecvPeakBytes int64
}

func (s *StreamStats) merge(o StreamStats) {
	s.Chunks += o.Chunks
	if o.InflightPeak > s.InflightPeak {
		s.InflightPeak = o.InflightPeak
	}
	if o.RecvPeakBytes > s.RecvPeakBytes {
		s.RecvPeakBytes = o.RecvPeakBytes
	}
}

// DefaultStreamWindow bounds the per-receiver in-flight chunk queue when a
// caller passes window <= 0.
const DefaultStreamWindow = 64

// LocalTransport moves envelopes in-process. Payloads are still serialized
// bytes (senders encode, receivers decode), so the compute cost of the
// serialization path is identical to a networked deployment; only the wire
// is skipped.
type LocalTransport struct {
	n int
}

// NewLocalTransport returns a transport for n workers.
func NewLocalTransport(n int) *LocalTransport { return &LocalTransport{n: n} }

// OpenExchange starts an in-process streaming exchange backed by bounded
// per-destination chunk queues.
func (t *LocalTransport) OpenExchange(ctx context.Context, phase string, window int) (ExchangeStream, error) {
	return newLocalExchange(ctx, t.n, window), nil
}

// Close is a no-op.
func (t *LocalTransport) Close() error { return nil }

// queuedChunk pairs a delivered envelope with an optional release hook
// returning its (pooled) payload buffer to the transport.
type queuedChunk struct {
	env     Envelope
	release func()
}

// chunkQueue is a bounded producer/consumer queue of chunks with abort
// support and high-water tracking. push blocks while the queue holds
// `window` chunks (backpressure); pop blocks until a chunk, close, or
// abort.
type chunkQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []queuedChunk
	head     int
	window   int
	closed   bool
	err      error
	curBytes int64

	chunks    int64
	peak      int64
	peakBytes int64
}

func newChunkQueue(window int) *chunkQueue {
	if window <= 0 {
		window = DefaultStreamWindow
	}
	q := &chunkQueue{window: window}
	q.cond = sync.NewCond(&q.mu)
	return q
}

var errQueueClosed = errors.New("cluster: send on closed stream")

func (q *chunkQueue) push(c queuedChunk) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items)-q.head >= q.window && q.err == nil && !q.closed {
		q.cond.Wait()
	}
	if q.err != nil {
		return q.err
	}
	if q.closed {
		return errQueueClosed
	}
	q.items = append(q.items, c)
	q.chunks++
	q.curBytes += int64(len(c.env.Payload))
	if depth := int64(len(q.items) - q.head); depth > q.peak {
		q.peak = depth
	}
	if q.curBytes > q.peakBytes {
		q.peakBytes = q.curBytes
	}
	q.cond.Broadcast()
	return nil
}

func (q *chunkQueue) pop() (queuedChunk, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == q.head && q.err == nil && !q.closed {
		q.cond.Wait()
	}
	if q.err != nil {
		return queuedChunk{}, false, q.err
	}
	if len(q.items) == q.head {
		return queuedChunk{}, false, nil
	}
	c := q.items[q.head]
	q.items[q.head] = queuedChunk{}
	q.head++
	q.curBytes -= int64(len(c.env.Payload))
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.cond.Broadcast()
	return c, true, nil
}

// close marks end-of-stream; buffered chunks remain poppable.
func (q *chunkQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// fail aborts the queue: pending and future push/pop return err, and any
// buffered pooled payloads are released.
func (q *chunkQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
		for i := q.head; i < len(q.items); i++ {
			if rel := q.items[i].release; rel != nil {
				rel()
			}
			q.items[i] = queuedChunk{}
		}
		q.items = q.items[:0]
		q.head = 0
		q.curBytes = 0
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *chunkQueue) stats() StreamStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return StreamStats{Chunks: q.chunks, InflightPeak: q.peak, RecvPeakBytes: q.peakBytes}
}

// localExchange is the in-process ExchangeStream: senders push directly
// into per-destination bounded queues; a queue closes once every sender
// has closed.
type localExchange struct {
	n      int
	queues []*chunkQueue

	mu            sync.Mutex
	closedSenders int
	aborted       error

	watchStop chan struct{}
	watchDone chan struct{}
}

func newLocalExchange(ctx context.Context, n, window int) *localExchange {
	ex := &localExchange{
		n:         n,
		queues:    make([]*chunkQueue, n),
		watchStop: make(chan struct{}),
		watchDone: make(chan struct{}),
	}
	for i := range ex.queues {
		ex.queues[i] = newChunkQueue(window)
	}
	go func() {
		defer close(ex.watchDone)
		select {
		case <-ctx.Done():
			ex.Abort(ctx.Err())
		case <-ex.watchStop:
		}
	}()
	return ex
}

func (ex *localExchange) Sender(worker int) StreamSender { return &localSender{ex: ex, id: worker} }
func (ex *localExchange) Receiver(worker int) StreamReceiver {
	return &localReceiver{ex: ex, id: worker}
}

func (ex *localExchange) Abort(cause error) {
	if cause == nil {
		cause = errors.New("cluster: exchange aborted")
	}
	ex.mu.Lock()
	if ex.aborted == nil {
		ex.aborted = cause
	}
	ex.mu.Unlock()
	for _, q := range ex.queues {
		q.fail(cause)
	}
}

func (ex *localExchange) Stats() StreamStats {
	var s StreamStats
	for _, q := range ex.queues {
		s.merge(q.stats())
	}
	return s
}

func (ex *localExchange) Close() error {
	ex.mu.Lock()
	done := ex.closedSenders >= ex.n || ex.aborted != nil
	ex.mu.Unlock()
	if !done {
		ex.Abort(errors.New("cluster: exchange closed before completion"))
	}
	close(ex.watchStop)
	<-ex.watchDone
	return nil
}

type localSender struct {
	ex     *localExchange
	id     int
	closed bool
}

func (s *localSender) Send(e Envelope) error {
	ex := s.ex
	if e.To < 0 || e.To >= ex.n {
		err := fmt.Errorf("local transport: destination %d out of range [0,%d)", e.To, ex.n)
		ex.Abort(err)
		return err
	}
	return ex.queues[e.To].push(queuedChunk{env: e})
}

func (s *localSender) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	ex := s.ex
	ex.mu.Lock()
	ex.closedSenders++
	last := ex.closedSenders == ex.n && ex.aborted == nil
	ex.mu.Unlock()
	if last {
		for _, q := range ex.queues {
			q.close()
		}
	}
	return nil
}

type localReceiver struct {
	ex *localExchange
	id int
}

func (r *localReceiver) Recv() (Envelope, bool, error) {
	c, ok, err := r.ex.queues[r.id].pop()
	if err != nil || !ok {
		return Envelope{}, false, err
	}
	return c.env, true, nil
}
