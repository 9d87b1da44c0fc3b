package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"adj/internal/blockcache"
	"adj/internal/relation"
)

// TestParallelRecoversPanic checks the containment contract in both
// execution modes: a panicking worker becomes a typed *WorkerPanicError
// (worker ID, phase, stack), the run's metrics count the recovery, and the
// cluster serves the next run after SetContext re-arms it.
func TestParallelRecoversPanic(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		name := "parallel"
		if sequential {
			name = "sequential"
		}
		t.Run(name, func(t *testing.T) {
			c := New(Config{N: 4, Sequential: sequential})
			defer c.Close()

			err := c.Parallel("boom", func(w *Worker) error {
				if w.ID == 1 {
					panic("injected")
				}
				return nil
			})
			if err == nil {
				t.Fatal("Parallel should surface the panic as an error")
			}
			if !errors.Is(err, ErrWorkerPanic) {
				t.Fatalf("want ErrWorkerPanic, got %v", err)
			}
			var wp *WorkerPanicError
			if !errors.As(err, &wp) {
				t.Fatalf("want *WorkerPanicError, got %T", err)
			}
			if wp.WorkerID != 1 || wp.Phase != "boom" || wp.Value != "injected" {
				t.Fatalf("unexpected panic record: %+v", wp)
			}
			if len(wp.Stack) == 0 {
				t.Fatal("panic record should carry the stack trace")
			}
			if got := c.Metrics.PanicsRecovered(); got != 1 {
				t.Fatalf("PanicsRecovered() = %d, want 1", got)
			}

			// The panic cancelled the derived run context; until the next
			// SetContext the cluster refuses phases...
			if err := c.Parallel("after", func(w *Worker) error { return nil }); err == nil {
				t.Fatal("phases should fail until the run context is re-armed")
			}
			// ...and after re-arming it runs normally again.
			c.SetContext(context.Background())
			if err := c.Parallel("after", func(w *Worker) error { return nil }); err != nil {
				t.Fatalf("cluster unusable after recovered panic: %v", err)
			}
		})
	}
}

// TestParallelPanicCancelsPeers verifies prompt peer cancellation: worker 0
// panics while its peers sit in a poll loop on CancelPoll; every peer must
// observe the abort well before the test deadline, and the one error that
// propagates is the panic, not the peers' collateral cancellations.
func TestParallelPanicCancelsPeers(t *testing.T) {
	c := New(Config{N: 4})
	defer c.Close()

	cancelled := c.CancelPoll()
	err := c.Parallel("poll", func(w *Worker) error {
		if w.ID == 0 {
			time.Sleep(5 * time.Millisecond) // let peers enter their loops
			panic("abort peers")
		}
		deadline := time.Now().Add(30 * time.Second)
		for !cancelled() {
			if time.Now().After(deadline) {
				return fmt.Errorf("worker %d never observed the abort", w.ID)
			}
			time.Sleep(100 * time.Microsecond)
		}
		return c.Context().Err() // what a real workload returns on abort
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("want the panic as root cause, got %v", err)
	}
}

// TestExchangePanicInConsume checks containment on the exchange path in
// both scheduling modes: a panic in a consume body is typed and attributed
// to the recv half, and the exchange unwinds instead of hanging.
func TestExchangePanicInConsume(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		c := New(Config{N: 2, Sequential: sequential})
		err := c.StreamExchange("x",
			func(w *Worker, s StreamSender) error {
				return s.Send(Envelope{To: (w.ID + 1) % 2, Payload: []byte("p")})
			},
			func(w *Worker, r StreamReceiver) error {
				if w.ID == 1 {
					panic("consume")
				}
				_, err := drain(r)
				return err
			})
		c.Close()
		var wp *WorkerPanicError
		if !errors.As(err, &wp) || wp.WorkerID != 1 || wp.Phase != "x/recv" {
			t.Fatalf("sequential=%v: want worker 1 panic in x/recv, got %v", sequential, err)
		}
	}
}

// TestPanicHookInjection exercises the deterministic fault-injection seam:
// a hook that panics for one (phase, worker) pair trips containment exactly
// there.
func TestPanicHookInjection(t *testing.T) {
	c := New(Config{N: 3})
	defer c.Close()
	c.SetPanicHook(func(phase string, workerID int) {
		if phase == "target" && workerID == 2 {
			panic("hooked")
		}
	})

	if err := c.Parallel("clean", func(w *Worker) error { return nil }); err != nil {
		t.Fatalf("hook fired outside its target: %v", err)
	}
	err := c.Parallel("target", func(w *Worker) error { return nil })
	var wp *WorkerPanicError
	if !errors.As(err, &wp) || wp.WorkerID != 2 {
		t.Fatalf("want worker 2 panic, got %v", err)
	}
}

// TestParallelParentCancelReported checks the cancellation class: when the
// caller's context is cancelled, the phase error is the parent context's
// own error (ErrCanceled == context.Canceled), not a panic or transport
// class.
func TestParallelParentCancelReported(t *testing.T) {
	c := New(Config{N: 2})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	c.SetContext(ctx)
	cancel()

	err := c.Parallel("cancelled", func(w *Worker) error { return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if errors.Is(err, ErrWorkerPanic) || errors.Is(err, ErrTransport) {
		t.Fatalf("cancellation misclassified: %v", err)
	}
}

// TestResetRunClearsWorkerState verifies the fail-safe reset a session
// performs after a failed execution: all per-run worker state is dropped.
func TestResetRunClearsWorkerState(t *testing.T) {
	c := New(Config{N: 2})
	defer c.Close()
	w := c.Workers[0]
	w.Rels["r"] = relation.New("r", "a")
	w.Blocks.DepositTuples(blockcache.Key{Rel: "r", Sig: 0}, []string{"a"}, relation.New("r", "a"))
	c.ResetRun()
	if len(w.Rels) != 0 || w.Blocks.Len() != 0 {
		t.Fatalf("ResetRun left state behind: rels=%v blocks=%d", w.Rels, w.Blocks.Len())
	}
}
