package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"adj/internal/cluster"
	"adj/internal/faultinject"
)

// contractTransports are the transports every exchange must behave the
// same over: in-process, loopback TCP, and the fault injector with no
// rules around the in-process one.
var contractTransports = []struct {
	name string
	open func(t *testing.T, n int) cluster.Transport
}{
	{"local", func(_ *testing.T, n int) cluster.Transport { return cluster.NewLocalTransport(n) }},
	{"tcp", func(t *testing.T, n int) cluster.Transport {
		tr, err := cluster.NewTCPTransport(n)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}},
	{"faultinject", func(_ *testing.T, n int) cluster.Transport {
		return faultinject.Wrap(cluster.NewLocalTransport(n), 1)
	}},
}

// TestExchangeContract runs one table of exchange behaviour over every
// transport: what is delivered and counted, completion with silent
// senders, the first abort's cause everywhere, Close before completion,
// a mid-stream cancel, and goroutines that settle.
func TestExchangeContract(t *testing.T) {
	const n, chunks, silent = 3, 5, 1
	var want [][]string // every receiver's sorted chunk tags
	for d := 0; d < n; d++ {
		var tags []string
		for s := 0; s < n; s++ {
			for k := 0; s != silent && k < chunks; k++ {
				tags = append(tags, fmt.Sprintf("%d>%d#%d", s, d, k))
			}
		}
		want = append(want, tags)
	}
	for _, tc := range contractTransports {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			for _, sequential := range []bool{false, true} {
				mode := map[bool]string{false: "parallel", true: "sequential"}[sequential]
				t.Run("delivery/"+mode, func(t *testing.T) {
					c := cluster.New(cluster.Config{N: n, Transport: tc.open(t, n), Sequential: sequential})
					defer c.Close()
					got := make([][]string, n)
					err := c.StreamExchange("contract",
						func(w *cluster.Worker, s cluster.StreamSender) error {
							for d := 0; w.ID != silent && d < n; d++ {
								for k := 0; k < chunks; k++ {
									tag := fmt.Sprintf("%d>%d#%d", w.ID, d, k)
									if err := s.Send(cluster.Envelope{To: d, Chunk: int32(k), Payload: []byte(tag)}); err != nil {
										return err
									}
								}
							}
							return nil
						},
						func(w *cluster.Worker, r cluster.StreamReceiver) error {
							for {
								e, ok, err := r.Recv()
								if err != nil || !ok {
									slices.Sort(got[w.ID])
									return err
								}
								got[w.ID] = append(got[w.ID], string(e.Payload))
							}
						})
					if err != nil {
						t.Fatal(err)
					}
					for d := range want {
						if !slices.Equal(got[d], want[d]) {
							t.Errorf("worker %d received %v, want %v", d, got[d], want[d])
						}
					}
					if e := c.Metrics.Entries()[0]; e.StreamChunks != int64((n-1)*n*chunks) {
						t.Errorf("Stats().Chunks = %d, want %d", e.StreamChunks, (n-1)*n*chunks)
					}
				})
				t.Run("cancel/"+mode, func(t *testing.T) {
					c := cluster.New(cluster.Config{N: n, Transport: tc.open(t, n), Sequential: sequential})
					defer c.Close()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					c.SetContext(ctx)
					err := c.StreamExchange("cancel",
						func(w *cluster.Worker, s cluster.StreamSender) error {
							for k := 0; ; k++ {
								if w.ID == 0 && k == 8 {
									cancel()
								}
								if err := s.Send(cluster.Envelope{To: (w.ID + 1) % n, Chunk: int32(k), Payload: make([]byte, 64)}); err != nil {
									return err
								}
							}
						},
						func(w *cluster.Worker, r cluster.StreamReceiver) error {
							for {
								if _, ok, err := r.Recv(); err != nil || !ok {
									return err
								}
							}
						})
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("err %v, want context.Canceled", err)
					}
				})
			}
			t.Run("first abort", func(t *testing.T) {
				tr := tc.open(t, 2)
				defer tr.Close()
				es, err := tr.OpenExchange(context.Background(), "abort", 2)
				if err != nil {
					t.Fatal(err)
				}
				first, second := errors.New("first"), errors.New("second")
				errs := make(chan error, 2)
				snd := es.Sender(0)
				go func() { // blocks once worker 1's window and the wire are full
					for k := 0; ; k++ {
						if err := snd.Send(cluster.Envelope{To: 1, Chunk: int32(k), Payload: make([]byte, 16<<10)}); err != nil {
							errs <- err
							return
						}
					}
				}()
				go func() { // blocks: nothing is sent to worker 0
					_, _, err := es.Receiver(0).Recv()
					errs <- err
				}()
				for es.Stats().InflightPeak < 2 {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(20 * time.Millisecond)
				es.Abort(first)
				es.Abort(second)
				for i := 0; i < 2; i++ {
					if err := <-errs; !errors.Is(err, first) {
						t.Errorf("blocked call returned %v, want %v", err, first)
					}
				}
				if err := snd.Send(cluster.Envelope{To: 1}); !errors.Is(err, first) {
					t.Errorf("later Send returned %v, want %v", err, first)
				}
				if _, _, err := es.Receiver(1).Recv(); !errors.Is(err, first) {
					t.Errorf("later Recv returned %v, want %v", err, first)
				}
				if err := es.Close(); !errors.Is(err, first) {
					t.Errorf("Close of an aborted exchange returned %v, want %v", err, first)
				}
			})
			t.Run("close early", func(t *testing.T) {
				tr := tc.open(t, 2)
				defer tr.Close()
				es, err := tr.OpenExchange(context.Background(), "early", 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := es.Sender(0).Send(cluster.Envelope{To: 1, Payload: []byte{1}}); err != nil {
					t.Fatal(err)
				}
				es.Sender(1).Close() // worker 0's sender never closes
				if err := es.Close(); err == nil {
					t.Fatal("Close before completion returned nil")
				}
				if _, _, err := es.Receiver(1).Recv(); err == nil {
					t.Fatal("Recv after an early Close returned no error")
				}
			})
			t.Run("open 64", func(t *testing.T) {
				tr := tc.open(t, 2)
				defer tr.Close()
				before := runtime.NumGoroutine()
				var open []cluster.ExchangeStream
				for i := 0; i < 64; i++ {
					es, err := tr.OpenExchange(context.Background(), "idle", 0)
					if err != nil {
						t.Fatal(err)
					}
					open = append(open, es)
				}
				if added := runtime.NumGoroutine() - before; added >= 64 {
					t.Errorf("64 open exchanges added %d goroutines", added)
				}
				var wg sync.WaitGroup
				for _, es := range open {
					wg.Add(1)
					go func() {
						defer wg.Done()
						es.Close()
					}()
				}
				wg.Wait()
			})
			cluster.StreamSettle(t, baseline)
		})
	}
}
