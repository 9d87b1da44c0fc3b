// Fixtures for the phasevocab analyzer: phase-name literals come from the
// fixed vocabulary. The Op/Metrics/Cluster shapes are matched by type
// name, so local models stand in for the real packages.
package phasevocab

type Op struct {
	Kind  int
	Phase string
}

type Metrics struct{}

func (m *Metrics) Charge(phase string, seconds float64) {}

type Cluster struct{}

func (c *Cluster) Parallel(phase string, fn func() error) error { return nil }
func (c *Cluster) StreamExchange(phase string) error            { return nil }

const legacyPhase = "hcube"

func good(c *Cluster, m *Metrics) {
	_ = Op{Phase: "precompute"}
	_ = Op{Phase: "precompute/canon"}
	_ = Op{Phase: "round0"}
	_ = Op{Phase: "join"}
	_ = Op{Phase: legacyPhase} // ok: named constants define vocabulary deliberately
	m.Charge("optimize", 1)
	_ = c.Parallel("tries", nil)
	_ = c.StreamExchange("shuffle")
	_ = c.StreamExchange("emit")
}

func bad(c *Cluster, m *Metrics) {
	_ = Op{Phase: "shufle"}       // want "outside the vocabulary"
	m.Charge("Join", 1)           // want "outside the vocabulary"
	_ = c.Parallel("warmup", nil) // want "outside the vocabulary"
	_ = c.StreamExchange("x")     // want "outside the vocabulary"
	m.Charge("sample/reduce", 1)  // want "outside the vocabulary"
}

func suppressed(m *Metrics) {
	//adjlint:ignore phasevocab migration shim keeps the pre-rename bucket
	m.Charge("hcube", 1)
}

func computed(c *Cluster, phase string) {
	_ = c.StreamExchange(phase)          // ok: computed names are the caller's problem
	_ = c.StreamExchange(phase + "/sub") // ok: not a literal
}

type other struct{}

func (o *other) Charge(name string, seconds float64) {}

func unrelated(o *other) {
	o.Charge("whatever", 1) // ok: not the Metrics type
}
