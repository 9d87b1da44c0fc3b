package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// StreamExchange runs one all-to-all shuffle — the only exchange runner:
// every worker's producer emits bounded chunks into one multiplexed
// transport exchange and every worker's consumer pulls and processes them.
//
// Contract: produce must Send complete, independently-decodable chunks and
// return (the cluster closes the sender half); consume must drain its
// receiver until end-of-stream or error, must tolerate any arrival
// interleaving across senders, and must not retain a received payload past
// the next Recv (transports pool receive buffers).
//
// Scheduling is the only thing the cluster's mode changes. The default runs
// 2N goroutines (one producer and one consumer per worker, both under panic
// containment) so communication overlaps computation on both sides: trie
// builds start when the first chunk lands, not when the slowest sender
// finishes. Sequential mode — the deterministic simulation — opens the same
// exchange with an unbounded window, runs the producers one worker at a
// time in worker order, then the consumers one worker at a time over the
// real receivers: LocalTransport therefore delivers in (sender, send-order),
// chunk-boundary fault injection fires in a reproducible order, and the
// accounting below is shared, not mirrored.
func (c *Cluster) StreamExchange(phase string,
	produce func(w *Worker, s StreamSender) error,
	consume func(w *Worker, r StreamReceiver) error) error {

	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("phase %s: %w", phase, err)
	}

	var retryBefore, dialBefore int64
	rc, hasRetry := c.transp.(RetryCounter)
	if hasRetry {
		retryBefore = rc.RetryStats()
	}
	dc, hasDial := c.transp.(DialCounter)
	if hasDial {
		dialBefore = dc.DialStats()
	}

	window := DefaultStreamWindow
	if !c.parallel {
		// No consumer runs until every producer has finished, so a bounded
		// window would deadlock the first producer to fill it.
		window = math.MaxInt
	}
	es, err := c.transp.OpenExchange(c.ctx, phase, window)
	if err != nil {
		return fmt.Errorf("phase %s: %w", phase, err)
	}

	n := c.N
	tracker := &abortTracker{}
	prodErrs := make([]error, n)
	consErrs := make([]error, n)
	prodDur := make([]time.Duration, n)
	consDur := make([]time.Duration, n)
	senders := make([]*meteredSender, n)
	receivers := make([]*meteredReceiver, n)

	defer func() {
		for _, w := range c.Workers {
			w.arena.reset()
			w.values.retire()
			w.int32s.retire()
		}
	}()

	runProducer := func(i int) {
		w := c.Workers[i]
		ms := &meteredSender{inner: es.Sender(i), w: w, inBytes: make([]int64, n)}
		senders[i] = ms
		ts := time.Now()
		err := c.runWorker(phase+"/send", w, func(w *Worker) error {
			return produce(w, ms)
		})
		prodDur[i] = time.Since(ts)
		ms.inner.Close()
		if err != nil {
			//adjlint:ignore errwrap identity dedup against the recorded abort cause, not classification
			if tracker.abort(es, err) || err != tracker.cause() {
				prodErrs[i] = err
			}
		}
	}
	runConsumer := func(i int) {
		w := c.Workers[i]
		mr := &meteredReceiver{inner: es.Receiver(i)}
		receivers[i] = mr
		ts := time.Now()
		err := c.runWorker(phase+"/recv", w, func(w *Worker) error {
			return consume(w, mr)
		})
		consDur[i] = time.Since(ts)
		if err != nil {
			//adjlint:ignore errwrap identity dedup against the recorded abort cause, not classification
			if tracker.abort(es, err) || err != tracker.cause() {
				consErrs[i] = err
			}
			return
		}
		// Drain anything the consumer left unread so senders blocked on
		// the window can finish and pooled buffers return.
		for {
			if _, ok, err := mr.inner.Recv(); err != nil || !ok {
				return
			}
		}
	}

	t0 := time.Now()
	if c.parallel {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(2)
			go func(i int) {
				defer wg.Done()
				runProducer(i)
			}(i)
			go func(i int) {
				defer wg.Done()
				runConsumer(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			runProducer(i)
		}
		for i := 0; i < n; i++ {
			runConsumer(i)
		}
	}
	elapsed := time.Since(t0).Seconds()
	stats := es.Stats()
	es.Close()

	// Accounting. Producer/consumer "busy" time excludes blocking inside
	// Send/Recv (backpressure waits are not computation), and the overlap
	// counter records how much busy time the pipeline packed into less
	// wall clock than a barriered exchange would need.
	e := Entry{Kind: ExchangeEntry, Phase: phase,
		StreamChunks: stats.Chunks, InflightPeakChunks: stats.InflightPeak, RecvPeakBytes: stats.RecvPeakBytes}
	inBytes := make([]int64, n)
	for i := 0; i < n; i++ {
		ms, mr := senders[i], receivers[i]
		if ms == nil || mr == nil {
			continue
		}
		e.BytesSent += ms.bytes
		e.TuplesSent += ms.tuples
		e.Messages += ms.msgs
		e.MaxServerBytes = max(e.MaxServerBytes, ms.bytes)
		e.MaxServerMessages = max(e.MaxServerMessages, ms.msgs)
		for d, b := range ms.inBytes {
			inBytes[d] += b
		}
		e.SendSeconds = max(e.SendSeconds, (prodDur[i] - ms.wait).Seconds())
		e.RecvSeconds = max(e.RecvSeconds, (consDur[i] - mr.wait).Seconds())
	}
	for _, b := range inBytes {
		e.MaxServerBytes = max(e.MaxServerBytes, b)
	}
	e.OverlapSeconds = max(0, e.SendSeconds+e.RecvSeconds-elapsed)
	c.Metrics.add(e)
	if hasRetry {
		c.Metrics.AddTransportRetries(rc.RetryStats() - retryBefore)
	}
	if hasDial {
		c.Metrics.AddTransportDials(dc.DialStats() - dialBefore)
	}

	// A panic in either half beats the cancellations it provoked in the
	// other, as it does within one half (foldErrors).
	sendErr, recvErr := c.foldErrors(phase+"/send", prodErrs), c.foldErrors(phase+"/recv", consErrs)
	if errors.Is(recvErr, ErrWorkerPanic) && !errors.Is(sendErr, ErrWorkerPanic) {
		return recvErr
	}
	if sendErr != nil {
		return sendErr
	}
	if recvErr != nil {
		return recvErr
	}
	if cause := tracker.cause(); cause != nil {
		// Every worker error was collateral of one abort (e.g. the caller's
		// context fired): the cause itself is the phase's error.
		return fmt.Errorf("phase %s: %w", phase, cause)
	}
	return nil
}

// abortTracker distinguishes a worker's own error from the collateral
// errors an exchange abort propagates to its peers: only the first abort's
// owner (and workers failing with a different error, e.g. a recovered
// panic) record into the fold arrays.
type abortTracker struct {
	mu  sync.Mutex
	err error
}

func (a *abortTracker) abort(es ExchangeStream, err error) (first bool) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
		first = true
	}
	a.mu.Unlock()
	es.Abort(err)
	return first
}

func (a *abortTracker) cause() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// meteredSender stamps From, tallies network counters per chunk, and
// tracks time blocked inside the transport (excluded from comp charging).
type meteredSender struct {
	inner   StreamSender
	w       *Worker
	wait    time.Duration
	bytes   int64
	tuples  int64
	msgs    int64
	inBytes []int64
}

func (s *meteredSender) Send(e Envelope) error {
	e.From = s.w.ID
	b := int64(len(e.Payload))
	t0 := time.Now()
	err := s.inner.Send(e)
	s.wait += time.Since(t0)
	if err != nil {
		return err
	}
	s.bytes += b
	s.tuples += e.Tuples
	s.msgs += e.MsgWeight()
	if e.To >= 0 && e.To < len(s.inBytes) {
		s.inBytes[e.To] += b
	}
	return nil
}

func (s *meteredSender) Close() error { return s.inner.Close() }

// meteredReceiver tracks time blocked inside Recv (excluded from comp
// charging: waiting for chunks is communication, not computation).
type meteredReceiver struct {
	inner StreamReceiver
	wait  time.Duration
}

func (r *meteredReceiver) Recv() (Envelope, bool, error) {
	t0 := time.Now()
	e, ok, err := r.inner.Recv()
	r.wait += time.Since(t0)
	return e, ok, err
}
