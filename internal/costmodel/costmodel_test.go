package costmodel

import (
	"testing"

	"adj/internal/cluster"
	"adj/internal/hcube"
)

func TestDefaultParams(t *testing.T) {
	for _, n := range []int{1, 4, 8, 28} {
		p := DefaultParams(n)
		if p.NumServers != n || p.Alpha <= 0 || p.BetaBase <= 0 || p.BetaTrie <= p.BetaBase || p.JoinRate <= 0 {
			t.Fatalf("n=%d: params=%+v", n, p)
		}
	}
}

// DefaultParams calibrates α from the network model for the cluster's size:
// per-cluster shuffle throughput of 16-byte tuples in 4096-tuple blocks,
// which must stay positive and plausible at every size the paper runs —
// and at n ≤ 0, which counts as one server rather than dividing by zero.
func TestCalibrateAlpha(t *testing.T) {
	for _, n := range []int{1, 4, 8, 28} {
		a := DefaultParams(n).Alpha
		if a < 1e6 || a > 1e10 {
			t.Fatalf("n=%d: alpha=%v implausible", n, a)
		}
		perServer := int64((1 << 20) / n)
		sec := DefaultNetwork().CommSeconds(16*perServer, perServer/4096+1)
		if want := (1 << 20) / (sec * float64(n)); a != want {
			t.Fatalf("n=%d: alpha=%v, want the network model's %v", n, a, want)
		}
	}
	for _, n := range []int{0, -1} {
		if got, want := DefaultParams(n).Alpha, DefaultParams(1).Alpha; got != want {
			t.Fatalf("n=%d: alpha=%v, want one server's %v", n, got, want)
		}
	}
}

func TestNetworkModel(t *testing.T) {
	nm := NetworkModel{BandwidthBytesPerSec: 1e9, PerMessageSec: 1e-5}
	s := nm.CommSeconds(1e9, 100)
	if s < 1.0 || s > 1.01 {
		t.Fatalf("comm seconds=%v", s)
	}
	if (NetworkModel{}).CommSeconds(100, 100) != 0 {
		t.Fatal("zero model must cost nothing")
	}
}

// An exchange entry is priced on its bottleneck counters under the paper's
// network; an entry that moved nothing costs nothing.
func TestExchangeSeconds(t *testing.T) {
	e := cluster.Entry{Kind: cluster.ExchangeEntry, Phase: "shuffle", BytesSent: 6, Messages: 6,
		MaxServerBytes: 2, MaxServerMessages: 2}
	if got, want := ExchangeSeconds(e), DefaultNetwork().CommSeconds(2, 2); got <= 0 || got != want {
		t.Fatalf("ExchangeSeconds = %v, want %v > 0", got, want)
	}
	if got := ExchangeSeconds(cluster.Entry{Kind: cluster.ParallelEntry, Phase: "join", Seconds: 1}); got != 0 {
		t.Fatalf("a parallel entry priced at %v", got)
	}
}

// TestCalibrateBetaTrie logs the reading DefaultParams' BetaTrie is the
// median of: run it in fresh processes on an idle host to re-measure.
func TestCalibrateBetaTrie(t *testing.T) {
	b := CalibrateBetaTrie(1 << 14)
	if b <= 0 {
		t.Fatalf("betaTrie=%v", b)
	}
	t.Logf("CalibrateBetaTrie(1<<14) = %.3g probes/s", b)
	if CalibrateBetaTrie(0) <= 0 {
		t.Fatal("degenerate size must still calibrate")
	}
}

func TestCalibrateJoinRate(t *testing.T) {
	if r := CalibrateJoinRate(); r <= 0 {
		t.Fatalf("joinRate=%v", r)
	}
}

func TestCommCost(t *testing.T) {
	p := DefaultParams(4)
	rels := []hcube.RelInfo{
		{Name: "R1", Attrs: []string{"a", "b"}, Size: 1000},
		{Name: "R2", Attrs: []string{"b", "c"}, Size: 1000},
		{Name: "R3", Attrs: []string{"a", "c"}, Size: 1000},
	}
	sec, shares, err := CommCost(rels, []string{"a", "b", "c"}, p)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Fatalf("comm cost=%v", sec)
	}
	if shares.NumCubes() != 4 {
		t.Fatalf("cubes=%d want 4", shares.NumCubes())
	}
	// Doubling every relation doubles the cost (same shares optimum).
	big := make([]hcube.RelInfo, len(rels))
	copy(big, rels)
	for i := range big {
		big[i].Size *= 2
	}
	sec2, _, err := CommCost(big, []string{"a", "b", "c"}, p)
	if err != nil {
		t.Fatal(err)
	}
	if sec2 < sec*1.9 || sec2 > sec*2.1 {
		t.Fatalf("cost not linear in size: %v vs %v", sec, sec2)
	}
}

func TestExtendCost(t *testing.T) {
	if c := ExtendCost(1e6, 1e6, 4); c != 0.25 {
		t.Fatalf("extend cost=%v want 0.25", c)
	}
	if ExtendCost(100, 0, 4) != 0 || ExtendCost(100, 10, 0) != 0 {
		t.Fatal("degenerate params must cost 0")
	}
}

func TestPrecomputeCost(t *testing.T) {
	p := DefaultParams(4)
	inputs := []hcube.RelInfo{
		{Name: "R4", Attrs: []string{"b", "e"}, Size: 10000},
		{Name: "R5", Attrs: []string{"c", "e"}, Size: 10000},
	}
	small := PrecomputeCost(inputs, 1000, p)
	large := PrecomputeCost(inputs, 1e9, p)
	if small <= 0 || large <= small {
		t.Fatalf("precompute costs: small=%v large=%v", small, large)
	}
}

func TestBetaFor(t *testing.T) {
	p := DefaultParams(2)
	if p.BetaFor(true) <= p.BetaFor(false) {
		t.Fatal("precomputed nodes must extend faster")
	}
}

func TestCommCostRespectsMemory(t *testing.T) {
	p := DefaultParams(4)
	p.MemoryPerServer = 600
	rels := []hcube.RelInfo{{Name: "R", Attrs: []string{"a", "b"}, Size: 2000}}
	_, shares, err := CommCost(rels, []string{"a", "b"}, p)
	if err != nil {
		t.Fatal(err)
	}
	if load := hcube.LoadPerCube(rels, shares); load > 600 {
		t.Fatalf("shares %v violate memory: load=%v", shares.P, load)
	}
}
