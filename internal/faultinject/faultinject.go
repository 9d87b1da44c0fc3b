// Package faultinject provides deterministic fault injection for the
// cluster runtime: a Transport wrapper that drops, delays, corrupts or
// fail-dials exchange legs by seeded coin flips, and a panic hook for
// Cluster.SetPanicHook that crashes chosen (phase, worker) bodies. The
// chaos tests drive every engine through it and assert the fault-tolerance
// contract: each run either matches the fault-free result exactly or
// returns a clean typed error — never a hang, a partial result, or a leak.
//
// Determinism: all randomness comes from one seeded source consumed in
// rule-declaration order at each chunk's Send, so a (seed, workload) pair
// replays the exact same fault schedule whenever the sends themselves are
// ordered (see OpenExchange).
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adj/internal/cluster"
)

// ErrInjected marks failures this package fabricated. Injected transport
// faults are wrapped in *cluster.TransportError, so they classify both as
// cluster.ErrTransport (the class the runtime handles) and as ErrInjected
// (so tests can tell a fabricated fault from a real one).
var ErrInjected = errors.New("faultinject: injected fault")

// Rule selects exchange legs and assigns fault probabilities. A zero
// probability disables that fault kind; matching fields left at their
// wildcard values ("" / -1) match everything.
type Rule struct {
	// Phase matches exchanges whose phase name contains this substring
	// ("" matches every phase).
	Phase string
	// From matches the sending worker (-1 = any).
	From int
	// To matches the receiving worker (-1 = any).
	To int

	// Drop is the probability that a matched chunk's delivery fails. The
	// transport contract is deliver-all-or-error, so a drop surfaces as a
	// typed transport error for the whole exchange (silent loss would make
	// engines compute wrong results without noticing).
	Drop float64
	// FailDial is the probability, rolled once per matched exchange, that
	// the exchange fails immediately with a dial-class transport error.
	FailDial float64
	// Corrupt is the probability that a matched envelope's payload is
	// copied with its leading byte flipped. Every wire codec (relation,
	// trie) opens with a magic byte it validates, so the receive-side
	// decode reliably fails, exercising the typed corrupt-payload abort
	// path — corruption never silently changes results.
	Corrupt float64
	// Delay is the probability that a matched chunk's Send sleeps a random
	// duration up to MaxDelay first.
	Delay float64
	// MaxDelay bounds an injected delay (default 2ms when Delay > 0).
	MaxDelay time.Duration
	// Times caps how many faults this rule injects in total (0 =
	// unlimited). Times=1 with probability 1 is the deterministic
	// "fail exactly once, then heal" schedule retry tests build on.
	Times int64
}

// Any is the wildcard worker ID for Rule.From / Rule.To.
const Any = -1

func (r Rule) matchesPhase(phase string) bool {
	return r.Phase == "" || strings.Contains(phase, r.Phase)
}

func (r Rule) matchesLeg(from, to int) bool {
	return (r.From == Any || r.From == from) && (r.To == Any || r.To == to)
}

// Stats counts injected faults by kind.
type Stats struct {
	Drops     int64
	FailDials int64
	Corrupts  int64
	Delays    int64
}

// Transport wraps an inner cluster transport with seeded fault injection
// and forwards cluster.RetryCounter / cluster.DialCounter when the inner
// transport provides them.
type Transport struct {
	inner cluster.Transport

	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	fired []int64 // per-rule injection counts (enforces Rule.Times)

	drops     atomic.Int64
	failDials atomic.Int64
	corrupts  atomic.Int64
	delays    atomic.Int64
}

// Wrap decorates inner with fault rules driven by the seeded source.
func Wrap(inner cluster.Transport, seed int64, rules ...Rule) *Transport {
	return &Transport{
		inner: inner,
		rules: rules,
		fired: make([]int64, len(rules)),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// SetRules replaces the fault schedule (per-rule Times counters restart).
// Tests use it to heal or re-arm a transport between runs; it must not be
// called concurrently with an in-flight exchange.
func (t *Transport) SetRules(rules ...Rule) {
	t.mu.Lock()
	t.rules = rules
	t.fired = make([]int64, len(rules))
	t.mu.Unlock()
}

// snapshotRules returns the current schedule (SetRules swaps it whole, so
// the slice itself is immutable once published).
func (t *Transport) snapshotRules() []Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rules
}

// Injected returns the total number of injected faults so far.
func (t *Transport) Injected() int64 {
	s := t.Stats()
	return s.Drops + s.FailDials + s.Corrupts + s.Delays
}

// Stats returns the per-kind injection counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Drops:     t.drops.Load(),
		FailDials: t.failDials.Load(),
		Corrupts:  t.corrupts.Load(),
		Delays:    t.delays.Load(),
	}
}

// RetryStats forwards the inner transport's retry counter (0 otherwise).
func (t *Transport) RetryStats() int64 {
	if rc, ok := t.inner.(cluster.RetryCounter); ok {
		return rc.RetryStats()
	}
	return 0
}

// DialStats forwards the inner transport's dial counter (0 otherwise).
func (t *Transport) DialStats() int64 {
	if dc, ok := t.inner.(cluster.DialCounter); ok {
		return dc.DialStats()
	}
	return 0
}

// Close closes the inner transport.
func (t *Transport) Close() error { return t.inner.Close() }

// roll consumes one coin flip from the seeded source for rule ri; a rule
// whose Times budget is spent stops flipping (and stops consuming
// randomness, keeping the remaining schedule deterministic).
func (t *Transport) roll(ri int, r Rule, p float64) bool {
	if p <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.Times > 0 && ri < len(t.fired) && t.fired[ri] >= r.Times {
		return false
	}
	if t.rng.Float64() >= p {
		return false
	}
	if ri < len(t.fired) {
		t.fired[ri]++
	}
	return true
}

func (t *Transport) randDelay(max time.Duration) time.Duration {
	if max <= 0 {
		max = 2 * time.Millisecond
	}
	t.mu.Lock()
	d := time.Duration(t.rng.Int63n(int64(max)) + 1)
	t.mu.Unlock()
	return d
}

// OpenExchange applies the fault schedule to one exchange: exchange-level
// FailDial rules fire at open; Drop, Corrupt and Delay rules fire per chunk
// at its Send boundary — a drop aborts the exchange with a typed transient
// error mid-stream, corruption flips the magic byte of a copied chunk
// (never the sender's buffer) so the receive-side decode fails typed, a
// delay stalls that one chunk. All flips come from the one seeded source
// and Times budgets stay exact. Under a Sequential cluster senders run one
// at a time in worker order, so a (seed, workload) pair replays the exact
// schedule; in goroutine-parallel mode the order in which concurrent
// senders consume flips follows the runtime schedule, so schedules that
// must replay exactly there use Times=1/probability-1 rules, which are
// order-independent.
func (t *Transport) OpenExchange(ctx context.Context, phase string, window int) (cluster.ExchangeStream, error) {
	rules := t.snapshotRules()
	for ri, r := range rules {
		if !r.matchesPhase(phase) {
			continue
		}
		if t.roll(ri, r, r.FailDial) {
			t.failDials.Add(1)
			return nil, &cluster.TransportError{Op: "dial", Dest: Any, Attempts: 1,
				Err: fmt.Errorf("%w: fail-dial in phase %q", ErrInjected, phase)}
		}
	}
	inner, err := t.inner.OpenExchange(ctx, phase, window)
	if err != nil {
		return nil, err
	}
	return &faultStream{t: t, inner: inner, ctx: ctx, phase: phase, rules: rules}, nil
}

// faultStream wraps one streaming exchange: sender halves inject
// chunk-boundary faults, everything else passes through.
type faultStream struct {
	t     *Transport
	inner cluster.ExchangeStream
	ctx   context.Context
	phase string
	rules []Rule
}

func (fs *faultStream) Sender(worker int) cluster.StreamSender {
	return &faultSender{fs: fs, inner: fs.inner.Sender(worker)}
}

func (fs *faultStream) Receiver(worker int) cluster.StreamReceiver {
	return fs.inner.Receiver(worker)
}

func (fs *faultStream) Abort(cause error)          { fs.inner.Abort(cause) }
func (fs *faultStream) Stats() cluster.StreamStats { return fs.inner.Stats() }
func (fs *faultStream) Close() error               { return fs.inner.Close() }

type faultSender struct {
	fs    *faultStream
	inner cluster.StreamSender
}

func (s *faultSender) Send(e cluster.Envelope) error {
	fs := s.fs
	t := fs.t
	for ri, r := range fs.rules {
		if !r.matchesPhase(fs.phase) || !r.matchesLeg(e.From, e.To) {
			continue
		}
		if t.roll(ri, r, r.Drop) {
			t.drops.Add(1)
			err := &cluster.TransportError{Op: "deliver", Dest: e.To, Attempts: 1,
				Err: fmt.Errorf("%w: dropped chunk %d of %d→%d in phase %q", ErrInjected, e.Chunk, e.From, e.To, fs.phase)}
			fs.inner.Abort(err)
			return err
		}
		if len(e.Payload) > 0 && t.roll(ri, r, r.Corrupt) {
			t.corrupts.Add(1)
			p := append([]byte(nil), e.Payload...)
			p[0] ^= 0xFF
			e.Payload = p
		}
		if t.roll(ri, r, r.Delay) {
			t.delays.Add(1)
			select {
			case <-fs.ctx.Done():
				return fs.ctx.Err()
			case <-time.After(t.randDelay(r.MaxDelay)):
			}
		}
	}
	return s.inner.Send(e)
}

func (s *faultSender) Close() error { return s.inner.Close() }

// PanicHook returns a hook for Cluster.SetPanicHook that panics with
// probability prob in workers whose phase name contains phaseSubstr
// ("" = every phase). The seeded source makes the crash schedule
// reproducible. The panic value wraps ErrInjected so containment tests can
// recognize fabricated crashes.
func PanicHook(seed int64, prob float64, phaseSubstr string) func(phase string, workerID int) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(phase string, workerID int) {
		if prob <= 0 || (phaseSubstr != "" && !strings.Contains(phase, phaseSubstr)) {
			return
		}
		mu.Lock()
		hit := rng.Float64() < prob
		mu.Unlock()
		if hit {
			panic(fmt.Errorf("%w: panic in phase %q worker %d", ErrInjected, phase, workerID))
		}
	}
}
