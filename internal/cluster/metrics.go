// Package cluster implements the distributed dataflow runtime ADJ runs on:
// N workers executing BSP-style phases (parallel local compute + all-to-all
// exchanges) over a pluggable Transport. The paper deploys on Spark over 7
// machines with 10 GbE; here workers are in-process, which keeps every
// relative cost the evaluation reasons about (tuples/bytes shuffled,
// per-server compute, stragglers) while staying laptop-scale and
// deterministic. A real TCP transport (stdlib net) is provided and
// integration-tested so the serialization path is honest.
//
// The runtime only counts and times: every seconds field of its record is
// measured wall time, and every other field is a count. It prices nothing:
// internal/costmodel holds the paper's network model, which turns an
// exchange's bottleneck bytes and messages into modeled seconds where the
// record is read.
package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// EntryKind names the runtime step that wrote a record entry.
type EntryKind uint8

const (
	// ParallelEntry is one Parallel call: local compute on every worker.
	ParallelEntry EntryKind = iota
	// ExchangeEntry is one StreamExchange call.
	ExchangeEntry
	// ChargeEntry is coordinator-side work charged with Metrics.Charge.
	ChargeEntry
)

func (k EntryKind) String() string { return [...]string{"parallel", "exchange", "charge"}[k] }

// Entry is one step of a run's record. Its seconds are measured; the
// exchange counters are what internal/costmodel prices.
type Entry struct {
	Kind  EntryKind
	Phase string
	// Seconds is a Parallel call's wall time — the max over workers of
	// measured per-worker time — or a charge's coordinator time. An
	// exchange's time is in SendSeconds and RecvSeconds.
	Seconds float64
	// SendSeconds and RecvSeconds are an exchange's busiest producer and
	// busiest consumer: busy time, blocking inside Send/Recv excluded.
	SendSeconds float64
	RecvSeconds float64
	// TuplesSent counts logical tuples moved (a block of k tuples counts k).
	TuplesSent int64
	// BytesSent counts serialized payload bytes.
	BytesSent int64
	// Messages counts logical envelopes (Push counts one per tuple even
	// though the runtime batches the physical transfer).
	Messages int64
	// StreamChunks counts chunk envelopes delivered to receivers.
	StreamChunks int64
	// OverlapSeconds is the comm/compute overlap the exchange reclaimed:
	// producer busy time + consumer busy time in excess of the exchange's
	// wall time (0 in Sequential mode, where consume cannot start before
	// the last producer finishes).
	OverlapSeconds float64
	// InflightPeakChunks is the high-water mark of chunks queued at any
	// single receiver (bounded by the stream window in parallel mode).
	InflightPeakChunks int64
	// RecvPeakBytes is the high-water mark of receive-side payload bytes
	// queued at any single worker: window-bounded in parallel mode, the
	// full inbox in Sequential mode.
	RecvPeakBytes int64
	// MaxServerBytes is the bottleneck server's traffic: the most bytes any
	// worker sent or received. MaxServerMessages is the most logical
	// messages any worker sent.
	MaxServerBytes    int64
	MaxServerMessages int64
}

// CompSeconds is the entry's measured compute time: a phase's or charge's
// seconds, or an exchange's producer plus consumer busy time.
func (e Entry) CompSeconds() float64 { return e.Seconds + e.SendSeconds + e.RecvSeconds }

// Metrics is one run's record: an append-only list of entries in execution
// order, one per Parallel call, StreamExchange call and coordinator charge.
type Metrics struct {
	mu      sync.Mutex
	entries []Entry
	// Fault counters (atomic; written from worker goroutines and the
	// exchange path): panics recovered into errors by Parallel, and
	// transport-level dial/write retries the exchanges performed.
	panicsRecovered  atomic.Int64
	transportRetries atomic.Int64
	transportDials   atomic.Int64
}

// AddPanicRecovered counts one worker panic recovered into an error.
func (m *Metrics) AddPanicRecovered() { m.panicsRecovered.Add(1) }

// PanicsRecovered returns the recovered-panic count of the run.
func (m *Metrics) PanicsRecovered() int64 { return m.panicsRecovered.Load() }

// AddTransportRetries folds n transport retries into the run's counter.
func (m *Metrics) AddTransportRetries(n int64) {
	if n > 0 {
		m.transportRetries.Add(n)
	}
}

// TransportRetries returns the transport dial/write retry count of the run.
func (m *Metrics) TransportRetries() int64 { return m.transportRetries.Load() }

// AddTransportDials folds n transport dials into the run's counter.
func (m *Metrics) AddTransportDials(n int64) {
	if n > 0 {
		m.transportDials.Add(n)
	}
}

// TransportDials returns the number of connections the run's exchanges
// dialed. Persistent transports amortize: after warm-up a run dials 0.
func (m *Metrics) TransportDials() int64 { return m.transportDials.Load() }

// NewMetrics returns an empty record.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) add(e Entry) {
	m.mu.Lock()
	m.entries = append(m.entries, e)
	m.mu.Unlock()
}

// Charge records measured coordinator-side seconds under a phase name.
func (m *Metrics) Charge(phase string, seconds float64) {
	m.add(Entry{Kind: ChargeEntry, Phase: phase, Seconds: seconds})
}

// Entries returns a copy of the record in execution order.
func (m *Metrics) Entries() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Entry(nil), m.entries...)
}

// TotalTuplesSent sums tuples over the record.
func (m *Metrics) TotalTuplesSent() int64 {
	var t int64
	for _, e := range m.Entries() {
		t += e.TuplesSent
	}
	return t
}

// String renders the record in execution order: counts and measured
// seconds only.
func (m *Metrics) String() string {
	var sb strings.Builder
	for _, e := range m.Entries() {
		if e.Kind != ExchangeEntry {
			fmt.Fprintf(&sb, "%-8s %-24s comp=%8.3fs\n", e.Kind, e.Phase, e.Seconds)
			continue
		}
		fmt.Fprintf(&sb, "%-8s %-24s send=%8.3fs recv=%8.3fs tuples=%-10d bytes=%-12d msgs=%-8d chunks=%d\n",
			e.Kind, e.Phase, e.SendSeconds, e.RecvSeconds, e.TuplesSent, e.BytesSent, e.Messages, e.StreamChunks)
	}
	return sb.String()
}
