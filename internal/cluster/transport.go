package cluster

import "context"

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
// time. Both transports share one exchange core (exchange.go): the
// per-destination queues, the window, the abort, the completion rule and
// the receivers are the same code, and a transport supplies only how a
// sent chunk reaches its destination's queue — LocalTransport queues it
// inside Send, TCPTransport writes a frame that the destination's demux
// reader queues. An exchange either delivers every chunk to its
// destination's receiver with payload bytes preserved exactly, or fails
// every blocked and later Send/Recv with its first abort's cause; partial
// or corrupted delivery without an error would let the engines compute
// wrong results.
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
// and receiver halves over one bounded queue per destination. A
// destination's stream ends once every sender has closed and the chunks
// they sent it have arrived. The first Abort fails every blocked and later
// Send/Recv with its cause; so does the run's context once it is done.
// Close must always be called: it aborts an exchange that has not
// completed and returns that cause (nil after completion).
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

// LocalTransport moves envelopes in-process: a chunk is queued at its
// destination inside Send. Payloads are still serialized bytes (senders
// encode, receivers decode), so the compute cost of the serialization path
// is identical to a networked deployment; only the wire is skipped.
type LocalTransport struct {
	n int
}

// NewLocalTransport returns a transport for n workers.
func NewLocalTransport(n int) *LocalTransport { return &LocalTransport{n: n} }

// OpenExchange starts an in-process streaming exchange.
func (t *LocalTransport) OpenExchange(ctx context.Context, phase string, window int) (ExchangeStream, error) {
	return newExchange(ctx, t.n, window, t), nil
}

// Close is a no-op.
func (t *LocalTransport) Close() error { return nil }

func (t *LocalTransport) carry(ex *exchange, _ int, e Envelope) error { return ex.deliver(e, nil) }
func (t *LocalTransport) onAbort()                                    {}
func (t *LocalTransport) onClose()                                    {}
