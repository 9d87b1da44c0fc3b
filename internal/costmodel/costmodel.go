// Package costmodel implements the cost functions of §III-B: communication
// cost costC (seconds to shuffle a relation set under optimized HCube
// shares), per-level computation cost costE (partial bindings to extend,
// divided by the extension rate β and the server count), and pre-computing
// cost costM (shuffle + join of a GHD bag's relations).
//
// Every planner reads its constants from DefaultParams, and none of them is
// timed while planning, so a plan is a function of its inputs: α is derived
// from the network model (NetworkModel, which also prices every exchange a
// run records), and the β rates and the hash-join rate are constants. The
// paper pre-measures β once per machine; CalibrateBetaTrie and
// CalibrateJoinRate are those measurements, run by hand (and by the
// benchmark's probes), never by a plan.
package costmodel

import (
	"math/rand"
	"time"

	"adj/internal/cluster"
	"adj/internal/hcube"
	"adj/internal/relation"
	"adj/internal/trie"
)

// Params holds the calibrated constants of §III-B.
type Params struct {
	// Alpha is tuples shuffled per second across the cluster.
	Alpha float64
	// BetaBase is extension ops per second per server when the traversed
	// node's relations are raw base relations.
	BetaBase float64
	// BetaTrie is extension ops per second per server when the node is a
	// pre-computed (materialized, single-trie) relation. Higher than
	// BetaBase: one probe replaces a multi-iterator intersection, and the
	// merged relation enforces the bag's full constraint at once.
	BetaTrie float64
	// JoinRate is hash-join throughput (input+output tuples per second per
	// server) for bag pre-computation.
	JoinRate float64
	// NumServers is N*.
	NumServers int
	// MemoryPerServer bounds HCube loads (tuples; 0 = unbounded).
	MemoryPerServer int64
}

// DefaultParams returns the cost constants of a cluster of n servers. Only α
// depends on n; nothing is timed.
func DefaultParams(n int) Params {
	return Params{
		Alpha:    alpha(n),
		BetaBase: 4e6,
		// BetaTrie is the median of 24 fresh-process CalibrateBetaTrie(1<<14)
		// readings (5.95–8.63 M/s) on an idle 2-core x86-64 Linux host,
		// go1.24, October 2026. Re-measure with `go test -count=1 -v -run
		// TestCalibrateBetaTrie ./internal/costmodel/` in fresh processes.
		BetaTrie:   7.7e6,
		JoinRate:   12e6,
		NumServers: n,
	}
}

// alpha is the shuffle throughput, in tuples per second across the cluster,
// that DefaultNetwork implies for blocks of binary tuples spread evenly over
// n servers (n < 1 counts as one).
func alpha(n int) float64 {
	const tuples = 1 << 20
	const bytesPerTuple = 16
	n = max(n, 1)
	perServer := int64(tuples / n)
	msgs := perServer/4096 + 1
	return float64(tuples) / (DefaultNetwork().CommSeconds(perServer*bytesPerTuple, msgs) * float64(n))
}

// NetworkModel converts an exchange's bottleneck counters into modeled
// seconds, calibrated to the paper's cluster (10 GbE ≈ 1.1 GB/s usable per
// server; per-message software overhead dominates tuple-at-a-time
// shuffles).
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
func (nm NetworkModel) CommSeconds(maxServerBytes, maxServerMsgs int64) float64 {
	if nm.BandwidthBytesPerSec <= 0 {
		return 0
	}
	return float64(maxServerBytes)/nm.BandwidthBytesPerSec + float64(maxServerMsgs)*nm.PerMessageSec
}

// ExchangeSeconds is the modeled network time of one record entry on the
// paper's testbed: the one price every reported communication second comes
// from. An entry that moved nothing costs 0.
func ExchangeSeconds(e cluster.Entry) float64 {
	return DefaultNetwork().CommSeconds(e.MaxServerBytes, e.MaxServerMessages)
}

// CalibrateBetaTrie measures probe throughput on a pre-built trie of the
// given size, as §III-B prescribes ("pre-measure β_i on tries of various
// sizes"). The probes run in batches and the rate is read off the fastest
// one: β is a constant of the machine, and a batch that shared its core with
// a neighbour or sat through a GC cycle says how busy the host was, not how
// fast a probe is. DefaultParams.BetaTrie is the median of such readings.
func CalibrateBetaTrie(size int) float64 {
	if size < 1024 {
		size = 1024
	}
	rng := rand.New(rand.NewSource(1))
	r := relation.NewWithCapacity("cal", size, "x", "y")
	for i := 0; i < size; i++ {
		r.Append(rng.Int63n(int64(size/4+1)), rng.Int63n(int64(size/4+1)))
	}
	tr := trie.Build(r, []string{"x", "y"})
	it := trie.NewIterator(tr)
	const batches, perBatch = 20, 10000
	var fastest time.Duration
	var sink relation.Value
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			it.Reset()
			it.Open()
			it.Seek(rng.Int63n(int64(size/4 + 1)))
			if !it.AtEnd() {
				sink += it.Key()
			}
		}
		if el := time.Since(t0); b == 0 || el < fastest {
			fastest = el
		}
	}
	_ = sink
	if fastest <= 0 {
		return 25e6
	}
	return perBatch / fastest.Seconds()
}

// CalibrateJoinRate times a small hash join and returns tuples/second.
func CalibrateJoinRate() float64 {
	rng := rand.New(rand.NewSource(2))
	const n = 50000
	a := relation.NewWithCapacity("a", n, "x", "y")
	b := relation.NewWithCapacity("b", n, "y", "z")
	for i := 0; i < n; i++ {
		a.Append(rng.Int63n(n), rng.Int63n(n/4))
		b.Append(rng.Int63n(n/4), rng.Int63n(n))
	}
	t0 := time.Now()
	out := relation.HashJoin(a, b)
	el := time.Since(t0).Seconds()
	if el <= 0 {
		return 12e6
	}
	return float64(2*n+out.Len()) / el
}

// CommCost returns costC(C) in seconds for shuffling the given relation
// set under the best share vector, plus that vector.
func CommCost(rels []hcube.RelInfo, attrs []string, p Params) (float64, hcube.Shares, error) {
	shares, err := hcube.Optimize(rels, hcube.Config{
		Attrs:           attrs,
		NumServers:      p.NumServers,
		MemoryPerServer: p.MemoryPerServer,
	})
	if err != nil {
		return 0, hcube.Shares{}, err
	}
	tuples := hcube.TotalComm(rels, shares)
	if p.Alpha <= 0 {
		return 0, shares, nil
	}
	return float64(tuples) / p.Alpha, shares, nil
}

// ExtendCost returns costE^i: the seconds to extend `bindings` partial
// bindings at a traversed node, given the applicable β and N* servers.
func ExtendCost(bindings float64, beta float64, numServers int) float64 {
	if beta <= 0 || numServers <= 0 {
		return 0
	}
	return bindings / (beta * float64(numServers))
}

// PrecomputeCost returns costM(Rv): shuffling λ(v) for a distributed
// binary join (each tuple moves once) plus the join work spread over the
// servers.
func PrecomputeCost(inputs []hcube.RelInfo, outputSize float64, p Params) float64 {
	var inTuples int64
	for _, r := range inputs {
		inTuples += r.Size
	}
	comm := 0.0
	if p.Alpha > 0 {
		comm = float64(inTuples) / p.Alpha
	}
	comp := 0.0
	if p.JoinRate > 0 && p.NumServers > 0 {
		comp = (float64(inTuples) + outputSize) / (p.JoinRate * float64(p.NumServers))
	}
	return comm + comp
}

// BetaFor picks the extension rate for a node: trie rate when the node is
// pre-computed, base rate otherwise.
func (p Params) BetaFor(precomputed bool) float64 {
	if precomputed {
		return p.BetaTrie
	}
	return p.BetaBase
}
