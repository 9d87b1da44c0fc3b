package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// sameMetrics fails unless got holds exactly the declared names, each once,
// with the declared units.
func sameMetrics(t *testing.T, where string, want []specMetric, got map[string]metricValue) {
	t.Helper()
	seen := make(map[string]bool)
	for _, d := range want {
		if seen[d.Name] {
			t.Errorf("%s: BENCHMARK.json declares %s twice", where, d.Name)
		}
		seen[d.Name] = true
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s is not emitted", where, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", where, d.Name, v.Unit, d.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", where, name)
		}
	}
}

// TestSmokeMatchesBenchmarkJSON runs every workload in the smoke sizing and
// checks that what it emits is exactly what BENCHMARK.json declares, that
// no op fails its oracle check, that the idle layers are idle, and that
// tear-down leaves no goroutine behind.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := run(context.Background(), config{seed: 1, seconds: 0.3, sz: smokeSizing}, "", true, true)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]workloadResult)
	for _, w := range res.Workloads {
		if _, dup := byName[w.Name]; dup {
			t.Errorf("workload %s is reported twice", w.Name)
		}
		byName[w.Name] = w
	}
	if len(spec.Workloads) != len(byName) {
		t.Errorf("BENCHMARK.json declares %d workloads, the run reports %d", len(spec.Workloads), len(byName))
	}
	for _, d := range spec.Workloads {
		w, ok := byName[d.Name]
		if !ok {
			t.Errorf("declared workload %s did not run", d.Name)
			continue
		}
		sameMetrics(t, d.Name+" end_to_end", spec.EndToEnd, w.EndToEnd)
		sameMetrics(t, d.Name+" per_layer", spec.PerLayer, w.PerLayer)
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", d.Name, w.Failed, w.Attempted, w.FirstError)
		}
		for name, v := range w.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", d.Name, name, v.Value)
			}
		}
		if n := w.PerLayer["process.goroutines_leaked"].Value; n != 0 {
			t.Errorf("%s: %v goroutines outlived tear-down", d.Name, n)
		}
	}

	warm := byName["serve-warm"].PerLayer
	for name, want := range map[string]float64{
		"cluster.shuffle_bytes_per_op":  0,
		"blockcache.trie_builds_per_op": 0,
		"session.plan_cache_hit_rate":   1,
		"blockcache.store_hit_rate":     1,
		"admission.shed":                0,
		"admission.rejected":            0,
	} {
		if got := warm[name].Value; got != want {
			t.Errorf("serve-warm: %s = %v, want %v", name, got, want)
		}
	}
	if got := byName["shuffle-tcp"].PerLayer["cluster.dials_per_op"].Value; got != 0 {
		t.Errorf("shuffle-tcp: %v dials per op after warm-up, want 0", got)
	}
}

func graphOf(edges [][2]relation.Value) *relation.Relation {
	return relation.FromEdges("edges", "src", "dst", edges)
}

// TestOracleKnownCounts checks the oracle on answers known by hand. Under
// Q1's orientation (a→b, b→c, a→c) K4 has four triangles when every edge
// points from the smaller vertex to the larger and 4·3·2 when edges go both
// ways; Q2, the 4-clique, matches every ordering of two-way K4's vertices.
func TestOracleKnownCounts(t *testing.T) {
	var oriented, both [][2]relation.Value
	for u := relation.Value(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			oriented = append(oriented, [2]relation.Value{u, v})
			both = append(both, [2]relation.Value{u, v}, [2]relation.Value{v, u})
		}
	}
	for _, tc := range []struct {
		name  string
		q     hypergraph.Query
		edges [][2]relation.Value
		want  int64
	}{
		{"Q1 on oriented K4", hypergraph.Q1(), oriented, 4},
		{"Q1 on two-way K4", hypergraph.Q1(), both, 24},
		{"Q2 on two-way K4", hypergraph.Q2(), both, 24},
		{"Q2 on oriented K4", hypergraph.Q2(), oriented, 0}, // its cycle a→b→c→d→a cannot be oriented
		{"Q1 on a path", hypergraph.Q1(), [][2]relation.Value{{0, 1}, {1, 2}}, 0},
	} {
		got, err := oracleJoin(tc.q, tc.q.BindGraph(graphOf(tc.edges)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.count != tc.want {
			t.Errorf("%s: count %d, want %d", tc.name, got.count, tc.want)
		}
	}
}

// TestChecksumIgnoresOrderAndSchemaOrder checks that a result listed in
// another row order and another attribute order checksums the same, and that
// a different result does not.
func TestChecksumIgnoresOrderAndSchemaOrder(t *testing.T) {
	q := hypergraph.Q1()
	want, err := oracleJoin(q, q.BindGraph(graphOf([][2]relation.Value{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}})))
	if err != nil {
		t.Fatal(err)
	}
	// The two triangles (a,b,c) = (0,1,2) and (1,2,3), as (c,a,b) rows in
	// reverse order.
	out := relation.FromTuples("out", []string{"c", "a", "b"}, [][]relation.Value{{3, 1, 2}, {2, 0, 1}})
	got, err := resultChecksum(q, out)
	if err != nil {
		t.Fatal(err)
	}
	if want.count != 2 || got != want.checksum {
		t.Errorf("checksum %#x over 2 rows, oracle says %#x over %d", got, want.checksum, want.count)
	}
	wrong := relation.FromTuples("out", []string{"a", "b", "c"}, [][]relation.Value{{0, 1, 2}, {1, 2, 4}})
	if got, _ := resultChecksum(q, wrong); got == want.checksum {
		t.Error("a different result has the same checksum")
	}
}

// TestCompareFlagsRegression checks -compare's verdicts: within the bound
// passes, beyond it fails, in the direction each metric declares.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v interface{}) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", map[string]interface{}{"end_to_end": []map[string]interface{}{
		{"name": "op_wall_s_p50", "unit": "s", "better": "lower", "bound": 0.1},
		{"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
	}})
	runOf := func(p50, tput float64) result {
		var r result
		r.Workloads = []workloadResult{{Name: "w", Attempted: 10, EndToEnd: map[string]metricValue{
			"op_wall_s_p50": {p50, "s"}, "throughput_ops_s": {tput, "ops/s"},
		}}}
		return r
	}
	base := write("base.json", runOf(1, 100))
	var report bytes.Buffer
	for _, tc := range []struct {
		name      string
		p50, tput float64
		pass      bool
	}{
		{"same", 1, 100, true},
		{"within", 1.09, 91, true},
		{"faster", 0.5, 200, true},
		{"slower p50", 1.11, 100, false},
		{"lower throughput", 1, 89, false},
	} {
		got, err := compareFiles(&report, spec, base, write("new.json", runOf(tc.p50, tc.tput)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.pass {
			t.Errorf("%s: pass = %v, want %v", tc.name, got, tc.pass)
		}
	}
	if text := report.String(); !strings.Contains(text, "FAIL") || !strings.Contains(text, "failed_share") {
		t.Errorf("report lacks a FAIL verdict or the failed_share row:\n%s", text)
	}
}
