package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
)

// TestErrorTaxonomyClassification pins the errors.Is / errors.As behavior
// the rest of the codebase builds on: the typed values classify under
// their class sentinels, survive phase-wrapping, and expose their fields.
func TestErrorTaxonomyClassification(t *testing.T) {
	wp := &WorkerPanicError{WorkerID: 3, Phase: "join/probe", Value: "boom", Stack: []byte("stack")}
	wrapped := fmt.Errorf("phase join/probe worker 3: %w", wp)
	if !errors.Is(wrapped, ErrWorkerPanic) {
		t.Fatal("wrapped WorkerPanicError does not classify as ErrWorkerPanic")
	}
	var gotWP *WorkerPanicError
	if !errors.As(wrapped, &gotWP) || gotWP.WorkerID != 3 || gotWP.Phase != "join/probe" {
		t.Fatalf("errors.As lost panic fields: %+v", gotWP)
	}
	if errors.Is(wrapped, ErrTransport) || errors.Is(wrapped, ErrCanceled) {
		t.Fatal("panic error leaked into other classes")
	}

	te := &TransportError{Op: "dial", Dest: 2, Attempts: 3, Err: io.ErrUnexpectedEOF}
	wrapped = fmt.Errorf("phase hcube/push: %w", te)
	if !errors.Is(wrapped, ErrTransport) {
		t.Fatal("wrapped TransportError does not classify as ErrTransport")
	}
	if !errors.Is(wrapped, io.ErrUnexpectedEOF) {
		t.Fatal("TransportError does not unwrap to its cause")
	}
	var gotTE *TransportError
	if !errors.As(wrapped, &gotTE) || gotTE.Op != "dial" || gotTE.Dest != 2 || gotTE.Attempts != 3 {
		t.Fatalf("errors.As lost transport fields: %+v", gotTE)
	}
	if errors.Is(wrapped, ErrWorkerPanic) {
		t.Fatal("transport error leaked into the panic class")
	}

	if !errors.Is(context.Canceled, ErrCanceled) {
		t.Fatal("ErrCanceled must be context.Canceled itself")
	}
}

// TestCorruptPayloadTyped verifies the decode-wrap helper produces a
// transport-class decode error that keeps the cause chain.
func TestCorruptPayloadTyped(t *testing.T) {
	cause := errors.New("bad magic byte")
	err := CorruptPayload("hcube pull block", cause)
	if !errors.Is(err, ErrTransport) {
		t.Fatal("CorruptPayload not transport-class")
	}
	if !errors.Is(err, cause) {
		t.Fatal("CorruptPayload lost the cause")
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "decode" {
		t.Fatalf("want decode-class TransportError, got %v", err)
	}
}

// TestIsTransient pins the retry predicate: transport failures are
// transient; panics, cancellations, deadline hits and plain errors are not
// — even when a transport error wraps a context error (an aborted exchange
// must not be retried against the caller's cancellation).
func TestIsTransient(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("whatever"), false},
		{"transport", &TransportError{Op: "dial", Dest: 1, Err: io.EOF}, true},
		{"transport wrapped", fmt.Errorf("phase p: %w", &TransportError{Op: "write", Dest: 0, Err: io.EOF}), true},
		{"decode", CorruptPayload("exchange", errors.New("bad magic")), true},
		{"panic", &WorkerPanicError{WorkerID: 0, Phase: "p", Value: "v"}, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"transport wrapping cancel", &TransportError{Op: "write", Dest: 1, Err: context.Canceled}, false},
		{"transport wrapping deadline", &TransportError{Op: "read", Dest: 1, Err: context.DeadlineExceeded}, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// countingTransport is a fake Transport + RetryCounter: each exchange
// "retries" a fixed number of times so the test can assert StreamExchange
// diffs the counter into the run's metrics.
type countingTransport struct {
	inner              *LocalTransport
	retriesPerExchange int64
	total              int64
	sawPhase           string
	sawCtx             context.Context
}

func (c *countingTransport) OpenExchange(ctx context.Context, phase string, window int) (ExchangeStream, error) {
	c.total += c.retriesPerExchange
	c.sawPhase = phase
	c.sawCtx = ctx
	return c.inner.OpenExchange(ctx, phase, window)
}

func (c *countingTransport) RetryStats() int64 { return c.total }
func (c *countingTransport) Close() error      { return c.inner.Close() }

// TestExchangeFoldsRetryStats verifies the metrics plumbing: a transport
// that reports retries sees them charged to the run's metrics, one diff per
// exchange, and the transport receives the run context and phase.
func TestExchangeFoldsRetryStats(t *testing.T) {
	const n = 3
	ct := &countingTransport{inner: NewLocalTransport(n), retriesPerExchange: 2}
	c := New(Config{N: n, Transport: ct})
	defer c.Close()

	exchange := func(phase string) error {
		return c.StreamExchange(phase,
			func(w *Worker, s StreamSender) error {
				return s.Send(Envelope{To: (w.ID + 1) % n, Key: "k"})
			},
			func(w *Worker, r StreamReceiver) error {
				_, err := drain(r)
				return err
			})
	}
	if err := exchange("shuffle/a"); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics.TransportRetries(); got != 2 {
		t.Fatalf("after one exchange: TransportRetries = %d, want 2", got)
	}
	if err := exchange("shuffle/b"); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics.TransportRetries(); got != 4 {
		t.Fatalf("after two exchanges: TransportRetries = %d, want 4", got)
	}
	if ct.sawPhase != "shuffle/b" {
		t.Fatalf("transport saw phase %q", ct.sawPhase)
	}
	if ct.sawCtx == nil {
		t.Fatal("transport did not receive the run context")
	}
}
