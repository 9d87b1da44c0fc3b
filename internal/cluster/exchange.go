package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// exchange is the one implementation of ExchangeStream under every
// transport. It owns the per-destination chunk queues, the first abort's
// cause, the completion rule, Stats and Close; the transport's link
// supplies only how a sent chunk reaches its destination's queue.
//
// Completion: each sender's Close publishes how many chunks it sent to
// every destination, and a destination's queue closes once every sender
// has closed and the queue has received that many chunks. Over
// LocalTransport a chunk is queued inside Send, so the counts already
// match when the last sender closes; over TCPTransport the demux readers
// may still be delivering.
type exchange struct {
	link   link
	queues []*chunkQueue
	stop   func() bool // unregisters the context watch
	once   sync.Once   // Close

	mu       sync.Mutex
	cause    error
	senders  int     // senders closed
	done     []bool  // by sender
	expected []int64 // chunks the closed senders sent, by destination
}

// link is what a transport adds to the exchange core.
type link interface {
	// carry moves chunk e, sent by worker from, toward e.To's queue: it
	// queues it there itself (ex.deliver) or hands it to something that
	// will. An error aborts the exchange.
	carry(ex *exchange, from int, e Envelope) error
	// onAbort releases what the transport holds for the exchange. It runs
	// once, after the first abort has failed every queue.
	onAbort()
	// onClose runs once, at Close.
	onClose()
}

var (
	errAborted     = errors.New("cluster: exchange aborted")
	errClosedEarly = errors.New("cluster: exchange closed before completion")
)

// newExchange opens an exchange among n workers whose queues hold at most
// window chunks (window <= 0: DefaultStreamWindow). It aborts with ctx's
// error once ctx is done, until Close; a context that can never be done
// costs no goroutine.
func newExchange(ctx context.Context, n, window int, l link) *exchange {
	ex := &exchange{link: l, queues: make([]*chunkQueue, n), done: make([]bool, n), expected: make([]int64, n)}
	for i := range ex.queues {
		ex.queues[i] = newChunkQueue(window)
	}
	ex.stop = context.AfterFunc(ctx, func() { ex.Abort(ctx.Err()) })
	return ex
}

func (ex *exchange) Sender(worker int) StreamSender {
	return &sender{ex: ex, id: worker, sent: make([]int64, len(ex.queues))}
}

func (ex *exchange) Receiver(worker int) StreamReceiver {
	return &receiver{q: ex.queues[worker]}
}

// Abort fails every queue with cause; only the first abort counts.
func (ex *exchange) Abort(cause error) {
	if cause == nil {
		cause = errAborted
	}
	ex.mu.Lock()
	first := ex.cause == nil
	if first {
		ex.cause = cause
	}
	ex.mu.Unlock()
	if !first {
		return
	}
	for _, q := range ex.queues {
		q.fail(cause)
	}
	ex.link.onAbort()
}

// err returns the first abort's cause, or nil.
func (ex *exchange) err() error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.cause
}

func (ex *exchange) Stats() StreamStats {
	var s StreamStats
	for _, q := range ex.queues {
		s.merge(q.stats())
	}
	return s
}

// Close aborts an exchange that has not completed and releases it. It
// returns nil for a completed exchange, else the abort's cause.
func (ex *exchange) Close() error {
	ex.once.Do(func() {
		ex.stop()
		complete := true
		for _, q := range ex.queues {
			complete = complete && q.completed()
		}
		if !complete {
			ex.Abort(errClosedEarly)
		}
		ex.link.onClose()
	})
	return ex.err()
}

// deliver queues e at its destination, blocking while the queue holds a
// full window. release, if not nil, returns e's pooled payload: the
// receiver calls it on its next Recv, and a refused chunk is released at
// once.
func (ex *exchange) deliver(e Envelope, release func()) error {
	err := ex.queues[e.To].push(queuedChunk{env: e, release: release})
	if err != nil && release != nil {
		release()
	}
	return err
}

// senderClosed records sender s's per-destination counts and, with the
// last sender, tells every queue how many chunks complete it.
func (ex *exchange) senderClosed(s int, sent []int64) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.done[s] {
		return
	}
	ex.done[s] = true
	ex.senders++
	for d, c := range sent {
		ex.expected[d] += c
	}
	if ex.senders == len(ex.done) {
		for d, q := range ex.queues {
			q.expect(ex.expected[d])
		}
	}
}

// sender is one worker's sending half.
type sender struct {
	ex   *exchange
	id   int
	sent []int64
}

func (s *sender) Send(e Envelope) error {
	ex := s.ex
	var err error
	if e.To < 0 || e.To >= len(s.sent) {
		err = &TransportError{Op: "deliver", Dest: e.To, Err: fmt.Errorf("destination out of range [0,%d)", len(s.sent))}
	} else if err = ex.link.carry(ex, s.id, e); err == nil {
		s.sent[e.To]++
		return nil
	}
	ex.Abort(err)
	return ex.err()
}

func (s *sender) Close() error {
	s.ex.senderClosed(s.id, s.sent)
	return nil
}

// receiver is one worker's receiving half. A payload is valid until the
// next Recv, which releases it.
type receiver struct {
	q       *chunkQueue
	release func()
}

func (r *receiver) Recv() (Envelope, bool, error) {
	if r.release != nil {
		r.release()
		r.release = nil
	}
	c, ok, err := r.q.pop()
	if !ok {
		return Envelope{}, false, err
	}
	r.release = c.release
	return c.env, true, nil
}

// queuedChunk pairs a delivered envelope with an optional release hook
// returning its (pooled) payload buffer to the transport.
type queuedChunk struct {
	env     Envelope
	release func()
}

// chunkQueue is one destination's bounded queue with abort, completion
// and high-water tracking. push blocks while the queue holds `window`
// chunks (backpressure); pop blocks until a chunk, completion or abort.
type chunkQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []queuedChunk
	head     int
	window   int
	want     int64 // chunks that complete the queue, once known
	known    bool  // every sender has closed: want is set
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
	q.closed = q.known && q.chunks >= q.want
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

// expect sets how many chunks complete the queue; it closes (buffered
// chunks stay poppable) once that many have arrived.
func (q *chunkQueue) expect(want int64) {
	q.mu.Lock()
	q.want, q.known = want, true
	q.closed = q.chunks >= want
	q.cond.Broadcast()
	q.mu.Unlock()
}

// completed reports whether the queue closed without an abort.
func (q *chunkQueue) completed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed && q.err == nil
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
