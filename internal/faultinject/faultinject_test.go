package faultinject

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"adj/internal/cluster"
)

func envs(n int) [][]cluster.Envelope {
	bySender := make([][]cluster.Envelope, n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			bySender[s] = append(bySender[s], cluster.Envelope{
				From: s, To: d, Key: "k", Payload: []byte{0xAD, 1, 2, 3},
			})
		}
	}
	return bySender
}

// routeAll runs one whole exchange over tr the way a Sequential cluster
// does: senders stream bySender one worker at a time in worker order under
// an unbounded window, then every receiver drains into owned copies.
func routeAll(ctx context.Context, tr cluster.Transport, phase string, bySender [][]cluster.Envelope) ([][]cluster.Envelope, error) {
	es, err := tr.OpenExchange(ctx, phase, math.MaxInt)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	for s, envs := range bySender {
		snd := es.Sender(s)
		for _, e := range envs {
			if err := snd.Send(e); err != nil {
				return nil, err
			}
		}
		snd.Close()
	}
	out := make([][]cluster.Envelope, len(bySender))
	for d := range out {
		rcv := es.Receiver(d)
		for {
			e, ok, err := rcv.Recv()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			e.Payload = append([]byte(nil), e.Payload...)
			out[d] = append(out[d], e)
		}
	}
	return out, nil
}

// TestDeterministicSchedule replays the same seed twice over the same
// exchange sequence on a Sequential cluster — producers run one worker at a
// time, so chunk-boundary flips are consumed in a fixed order — and requires
// identical injection counts and identical per-exchange outcomes.
func TestDeterministicSchedule(t *testing.T) {
	run := func(seed int64) (Stats, []bool) {
		tr := Wrap(cluster.NewLocalTransport(3), seed,
			Rule{From: Any, To: Any, Drop: 0.2, Corrupt: 0.2, FailDial: 0.05})
		c := cluster.New(cluster.Config{N: 3, Transport: tr, Sequential: true})
		defer c.Close()
		bySender := envs(3)
		var outcomes []bool
		for i := 0; i < 50; i++ {
			err := c.StreamExchange("phase",
				func(w *cluster.Worker, s cluster.StreamSender) error {
					for _, e := range bySender[w.ID] {
						if err := s.Send(e); err != nil {
							return err
						}
					}
					return nil
				},
				func(w *cluster.Worker, r cluster.StreamReceiver) error {
					for {
						if _, ok, err := r.Recv(); err != nil || !ok {
							return err
						}
					}
				})
			outcomes = append(outcomes, err == nil)
		}
		return tr.Stats(), outcomes
	}
	s1, o1 := run(42)
	s2, o2 := run(42)
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed, different outcome at exchange %d", i)
		}
	}
	if s1.Drops == 0 && s1.FailDials == 0 {
		t.Fatalf("schedule injected nothing: %+v", s1)
	}
	s3, _ := run(43)
	if s1 == s3 {
		t.Fatalf("different seeds produced identical stats %+v (suspicious)", s1)
	}
}

// TestDropIsTypedError verifies a dropped leg aborts the exchange with an
// error classifying as both cluster.ErrTransport and ErrInjected.
func TestDropIsTypedError(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 7, Rule{From: Any, To: Any, Drop: 1})
	_, err := routeAll(context.Background(), tr, "", envs(2))
	if err == nil {
		t.Fatal("Drop=1 should fail the exchange")
	}
	if !errors.Is(err, cluster.ErrTransport) || !errors.Is(err, ErrInjected) {
		t.Fatalf("drop error not typed: %v", err)
	}
	if tr.Stats().Drops != 1 {
		t.Fatalf("stats = %+v, want one drop", tr.Stats())
	}
}

// TestFailDialIsTypedError verifies the exchange-level fail-dial fault.
func TestFailDialIsTypedError(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 7, Rule{From: Any, To: Any, FailDial: 1})
	_, err := routeAll(context.Background(), tr, "", envs(2))
	if !errors.Is(err, cluster.ErrTransport) || !errors.Is(err, ErrInjected) {
		t.Fatalf("fail-dial error not typed: %v", err)
	}
	var te *cluster.TransportError
	if !errors.As(err, &te) || te.Op != "dial" {
		t.Fatalf("want dial-class TransportError, got %v", err)
	}
}

// TestCorruptFlipsCopyNotOriginal verifies corruption damages only a copy:
// the exchange delivers a payload with its magic byte flipped while the
// sender's buffer is untouched (engines may retain encode buffers).
func TestCorruptFlipsCopyNotOriginal(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 7, Rule{From: 0, To: 1, Corrupt: 1})
	bySender := envs(2)
	orig := bySender[0][1].Payload // the 0→1 leg
	out, err := routeAll(context.Background(), tr, "", bySender)
	if err != nil {
		t.Fatalf("corruption should not fail the exchange itself: %v", err)
	}
	if orig[0] != 0xAD {
		t.Fatal("corruption mutated the sender's buffer")
	}
	var hit bool
	for _, e := range out[1] {
		if e.From == 0 && e.Payload[0] != 0xAD {
			hit = true
		}
	}
	if !hit {
		t.Fatal("no corrupted payload delivered on the matched leg")
	}
	// Unmatched legs (From != 0) must arrive intact.
	for _, e := range out[0] {
		if e.Payload[0] != 0xAD {
			t.Fatalf("corruption leaked onto unmatched leg %d→%d", e.From, e.To)
		}
	}
}

// TestRuleScoping verifies phase and leg matching: a rule scoped to one
// phase substring and one leg must not fire elsewhere.
func TestRuleScoping(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 7, Rule{Phase: "hcube", From: 1, To: 0, Drop: 1})
	if _, err := routeAll(context.Background(), tr, "join/emit", envs(2)); err != nil {
		t.Fatalf("rule fired outside its phase: %v", err)
	}
	if _, err := routeAll(context.Background(), tr, "hcube/push", envs(2)); err == nil {
		t.Fatal("rule did not fire in its phase")
	}
}

// TestDelayObservesContext verifies an injected delay respects context
// cancellation instead of sleeping through it.
func TestDelayObservesContext(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 7,
		Rule{From: Any, To: Any, Delay: 1, MaxDelay: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := routeAll(ctx, tr, "slow", envs(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay ignored the context deadline")
	}
}

// TestPanicHookDeterministic verifies the hook's crash schedule replays
// under the same seed and respects its phase scope.
func TestPanicHookDeterministic(t *testing.T) {
	fire := func(seed int64) []bool {
		hook := PanicHook(seed, 0.3, "join")
		var hits []bool
		for i := 0; i < 40; i++ {
			hits = append(hits, func() (panicked bool) {
				defer func() {
					if r := recover(); r != nil {
						panicked = true
						if err, ok := r.(error); !ok || !errors.Is(err, ErrInjected) {
							t.Errorf("panic value not ErrInjected: %v", r)
						}
					}
				}()
				hook("join/probe", i%4)
				return false
			}())
		}
		return hits
	}
	h1, h2 := fire(5), fire(5)
	any := false
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("same seed, different crash schedule at %d", i)
		}
		any = any || h1[i]
	}
	if !any {
		t.Fatal("hook never fired at prob 0.3 over 40 calls")
	}

	quiet := PanicHook(5, 1, "hcube")
	quiet("join/probe", 0) // out of scope: must not panic
}

// TestTimesBoundsInjections verifies the fail-once-then-heal schedule:
// Drop=1 with Times=1 fails exactly the first exchange, and SetRules
// restarts the budget.
func TestTimesBoundsInjections(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 9, Rule{From: Any, To: Any, Drop: 1, Times: 1})
	if _, err := routeAll(context.Background(), tr, "", envs(2)); err == nil {
		t.Fatal("first exchange should fail")
	}
	for i := 0; i < 5; i++ {
		if _, err := routeAll(context.Background(), tr, "", envs(2)); err != nil {
			t.Fatalf("exchange %d after Times budget spent should succeed: %v", i, err)
		}
	}
	if tr.Stats().Drops != 1 {
		t.Fatalf("drops = %d, want exactly 1", tr.Stats().Drops)
	}
	tr.SetRules(Rule{From: Any, To: Any, Drop: 1, Times: 1})
	if _, err := routeAll(context.Background(), tr, "", envs(2)); err == nil {
		t.Fatal("SetRules should restart the Times budget")
	}
}

// --- Streaming-path fault tests: faults injected at chunk boundaries
// through OpenExchange, the surface the pipelined shuffle runs on. ---

// streamRoundTrip opens a streaming exchange over tr, streams `chunks`
// chunks from worker 0 to worker 1, closes the sender halves, and drains
// receiver 1. It returns the drained payload copies or the first error.
func streamRoundTrip(ctx context.Context, tr cluster.Transport, chunks int) ([][]byte, error) {
	es, err := tr.OpenExchange(ctx, "stream", 8)
	if err != nil {
		return nil, err
	}
	defer es.Close()

	sendErr := make(chan error, 1)
	go func() {
		snd := es.Sender(0)
		for k := 0; k < chunks; k++ {
			e := cluster.Envelope{From: 0, To: 1, Key: "k", Chunk: int32(k),
				Payload: []byte{0xAD, byte(k), 2, 3}}
			if err := snd.Send(e); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- snd.Close()
	}()
	go es.Sender(1).Close()

	rcv := es.Receiver(1)
	var got [][]byte
	for {
		e, ok, err := rcv.Recv()
		if err != nil {
			<-sendErr
			return got, err
		}
		if !ok {
			break
		}
		got = append(got, append([]byte(nil), e.Payload...))
	}
	if err := <-sendErr; err != nil {
		return got, err
	}
	return got, nil
}

// TestStreamDropAbortsMidStream injects exactly one drop at a chunk
// boundary: the sender's Send fails typed, the receiver observes the same
// abort cause, and a healed transport then streams clean.
func TestStreamDropAbortsMidStream(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 11, Rule{From: Any, To: Any, Drop: 1, Times: 1})
	_, err := streamRoundTrip(context.Background(), tr, 6)
	if err == nil {
		t.Fatal("dropped chunk did not abort the stream")
	}
	if !errors.Is(err, cluster.ErrTransport) || !errors.Is(err, ErrInjected) {
		t.Fatalf("drop error %v is not typed ErrTransport+ErrInjected", err)
	}
	var terr *cluster.TransportError
	if !errors.As(err, &terr) || terr.Op != "deliver" {
		t.Fatalf("drop error %v does not carry Op=deliver", err)
	}
	if got, err := streamRoundTrip(context.Background(), tr, 6); err != nil || len(got) != 6 {
		t.Fatalf("healed stream: got %d chunks, err %v", len(got), err)
	}
	if tr.Stats().Drops != 1 {
		t.Fatalf("drops = %d, want exactly 1", tr.Stats().Drops)
	}
}

// TestStreamFailDialAtOpen verifies exchange-level FailDial fires at
// OpenExchange with a typed dial error, before any chunk moves.
func TestStreamFailDialAtOpen(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 3, Rule{From: Any, To: Any, FailDial: 1, Times: 1})
	_, err := tr.OpenExchange(context.Background(), "stream", 8)
	if err == nil {
		t.Fatal("fail-dial rule did not fail OpenExchange")
	}
	var terr *cluster.TransportError
	if !errors.As(err, &terr) || terr.Op != "dial" || !errors.Is(err, ErrInjected) {
		t.Fatalf("open error %v is not a typed injected dial failure", err)
	}
	if got, err := streamRoundTrip(context.Background(), tr, 4); err != nil || len(got) != 4 {
		t.Fatalf("healed open: got %d chunks, err %v", len(got), err)
	}
}

// TestStreamCorruptFlipsChunkCopy corrupts exactly one chunk mid-stream:
// the receiver sees one flipped leading byte, the rest arrive intact, and
// the sender's original buffer is untouched.
func TestStreamCorruptFlipsChunkCopy(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 5, Rule{From: Any, To: Any, Corrupt: 1, Times: 1})
	got, err := streamRoundTrip(context.Background(), tr, 5)
	if err != nil {
		t.Fatalf("corruption must not abort the stream: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("received %d chunks, want 5", len(got))
	}
	flipped := 0
	for _, p := range got {
		switch p[0] {
		case 0xAD:
		case 0xAD ^ 0xFF:
			flipped++
		default:
			t.Fatalf("chunk leading byte %#x is neither intact nor flipped", p[0])
		}
	}
	if flipped != 1 {
		t.Fatalf("%d chunks flipped, want exactly 1 (Times=1)", flipped)
	}
}

// TestStreamDelayObservesContext arms a long per-chunk delay under an
// already-expiring context: the chunk's Send must return the context error
// promptly instead of sleeping out the full delay.
func TestStreamDelayObservesContext(t *testing.T) {
	tr := Wrap(cluster.NewLocalTransport(2), 13,
		Rule{From: Any, To: Any, Delay: 1, MaxDelay: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := streamRoundTrip(ctx, tr, 3)
	if err == nil {
		t.Fatal("delayed stream under expired context should fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("delay ignored context: took %v", elapsed)
	}
}
