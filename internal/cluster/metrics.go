// Package cluster implements the distributed dataflow runtime ADJ runs on:
// N workers executing BSP-style phases (parallel local compute + all-to-all
// exchanges) over a pluggable Transport. The paper deploys on Spark over 7
// machines with 10 GbE; here workers are in-process and the network is
// modeled, which preserves every relative cost the evaluation reasons about
// (tuples/bytes shuffled, per-server compute, stragglers) while staying
// laptop-scale and deterministic. A real TCP transport (stdlib net) is
// provided and integration-tested so the serialization path is honest.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NetworkModel converts exchange counters into modeled seconds, calibrated
// to the paper's cluster (10 GbE ≈ 1.1 GB/s usable per server; per-message
// software overhead dominates tuple-at-a-time shuffles).
type NetworkModel struct {
	// BandwidthBytesPerSec is the per-server usable bandwidth.
	BandwidthBytesPerSec float64
	// PerMessageSec is the fixed cost per envelope (framing, syscalls,
	// scheduling) — what makes Push-style shuffles slow.
	PerMessageSec float64
}

// DefaultNetwork approximates the paper's testbed.
func DefaultNetwork() NetworkModel {
	return NetworkModel{
		BandwidthBytesPerSec: 1.1e9,
		PerMessageSec:        20e-6,
	}
}

// CommSeconds models the wall-clock of one exchange: the bottleneck server
// pays max(in, out) bytes over its link, plus per-message overhead which is
// paid by the senders in parallel.
func (nm NetworkModel) CommSeconds(maxServerBytes int64, maxServerMsgs int64) float64 {
	if nm.BandwidthBytesPerSec <= 0 {
		return 0
	}
	return float64(maxServerBytes)/nm.BandwidthBytesPerSec + float64(maxServerMsgs)*nm.PerMessageSec
}

// PhaseMetrics aggregates one named phase (possibly over several calls).
type PhaseMetrics struct {
	Name string
	// CompSeconds is the simulated wall time of local computation: the max
	// over workers of measured per-worker time, summed over calls.
	CompSeconds float64
	// CommSeconds is the modeled network time (see NetworkModel).
	CommSeconds float64
	// TuplesSent counts logical tuples moved (a block of k tuples counts k).
	TuplesSent int64
	// BytesSent counts serialized payload bytes.
	BytesSent int64
	// Messages counts logical envelopes (Push counts one per tuple even
	// though the runtime batches the physical transfer).
	Messages int64
	// OverlapSeconds is the comm/compute overlap the exchange reclaimed:
	// producer busy time + consumer busy time in excess of the exchange's
	// wall time (0 in Sequential mode, where consume cannot start before
	// the last producer finishes).
	OverlapSeconds float64
	// StreamChunks counts chunk envelopes delivered to receivers.
	StreamChunks int64
	// InflightPeakChunks is the high-water mark of chunks queued at any
	// single receiver (bounded by the stream window in parallel mode).
	InflightPeakChunks int64
	// RecvPeakBytes is the high-water mark of receive-side payload bytes
	// queued at any single worker: window-bounded in parallel mode, the
	// full inbox in Sequential mode.
	RecvPeakBytes int64
}

// Metrics collects phase metrics for one engine run.
type Metrics struct {
	mu     sync.Mutex
	phases []*PhaseMetrics
	byName map[string]*PhaseMetrics
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

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{byName: make(map[string]*PhaseMetrics)}
}

// Phase returns (creating if needed) the accumulator for a phase name.
func (m *Metrics) Phase(name string) *PhaseMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.byName[name]
	if !ok {
		p = &PhaseMetrics{Name: name}
		m.byName[name] = p
		m.phases = append(m.phases, p)
	}
	return p
}

// Phases returns phases in first-use order.
func (m *Metrics) Phases() []*PhaseMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*PhaseMetrics(nil), m.phases...)
}

// TotalSeconds sums comp+comm over all phases.
func (m *Metrics) TotalSeconds() float64 {
	t := 0.0
	for _, p := range m.Phases() {
		t += p.CompSeconds + p.CommSeconds
	}
	return t
}

// TotalTuplesSent sums tuples over all phases.
func (m *Metrics) TotalTuplesSent() int64 {
	var t int64
	for _, p := range m.Phases() {
		t += p.TuplesSent
	}
	return t
}

// TotalOverlapSeconds sums streaming comm/compute overlap over all phases.
func (m *Metrics) TotalOverlapSeconds() float64 {
	t := 0.0
	for _, p := range m.Phases() {
		t += p.OverlapSeconds
	}
	return t
}

// TotalStreamChunks sums delivered stream chunks over all phases.
func (m *Metrics) TotalStreamChunks() int64 {
	var t int64
	for _, p := range m.Phases() {
		t += p.StreamChunks
	}
	return t
}

// MaxRecvPeakBytes returns the largest receive-side byte high-water of any
// phase.
func (m *Metrics) MaxRecvPeakBytes() int64 {
	var t int64
	for _, p := range m.Phases() {
		if p.RecvPeakBytes > t {
			t = p.RecvPeakBytes
		}
	}
	return t
}

// SumMatching sums (comp, comm) over phases whose name has the prefix.
func (m *Metrics) SumMatching(prefix string) (comp, comm float64) {
	for _, p := range m.Phases() {
		if strings.HasPrefix(p.Name, prefix) {
			comp += p.CompSeconds
			comm += p.CommSeconds
		}
	}
	return comp, comm
}

// String renders a metrics table.
func (m *Metrics) String() string {
	var sb strings.Builder
	ps := m.Phases()
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	for _, p := range ps {
		fmt.Fprintf(&sb, "%-28s comp=%8.3fs comm=%8.3fs tuples=%-10d bytes=%-12d msgs=%d\n",
			p.Name, p.CompSeconds, p.CommSeconds, p.TuplesSent, p.BytesSent, p.Messages)
	}
	return sb.String()
}
