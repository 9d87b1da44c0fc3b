// Command benchmark is the repository's benchmark: four workloads that drive
// the join system through its public entry points, end-to-end metrics
// measured with tracing off, and per-layer metrics from a traced pass and
// from layer probes. BENCHMARK.json at the repository root names every
// workload and metric; README.md in this directory explains them.
//
//	go run ./benchmark [-seed N] [-seconds S] [-out dir] [-smoke]
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// rounds is how many measured rounds a workload's seconds are split into;
// with several workloads the rounds interleave (A B C D A B C D ...).
const rounds = 3

type config struct {
	seed    int64
	seconds float64 // measured seconds per workload
	sz      sizing
	outDir  string // trace and result files go here; "" writes none
}

// workloadResult is everything one workload measured.
type workloadResult struct {
	Name       string                 `json:"name"`
	Clients    int                    `json:"clients"`
	Edges      int                    `json:"edges"`
	RowsPerOp  int64                  `json:"rows_per_op"`
	Samples    int                    `json:"samples"` // timed ops behind the end-to-end metrics
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FirstError string                 `json:"first_error,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	Spans      []spanSummary          `json:"spans,omitempty"`
}

// result is one benchmark run; -compare reads two of them.
type result struct {
	Meta struct {
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		GoVersion  string  `json:"go_version"`
		Commit     string  `json:"commit"`
		Seed       int64   `json:"seed"`
		Seconds    float64 `json:"seconds_per_workload"`
	} `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// run measures the workload named only, or all of them when only is empty.
// The end-to-end part runs with tracing off; the per-layer part adds the
// traced pass and the layer probes.
func run(ctx context.Context, cfg config, only string, endToEnd, perLayer bool) (result, error) {
	var res result
	res.Meta.NProc = runtime.NumCPU()
	res.Meta.GOMAXPROCS = runtime.GOMAXPROCS(0)
	res.Meta.GoVersion = runtime.Version()
	res.Meta.Commit = commit()
	res.Meta.Seed = cfg.seed
	res.Meta.Seconds = cfg.seconds

	var benches []*bench
	for _, w := range newWorkloads() {
		if only != "" && only != w.info().name {
			continue
		}
		sz := cfg.sz
		if !endToEnd {
			sz.setupReps = 1 // setup_s is an end-to-end metric
		}
		if err := w.prepare(cfg.seed, sz); err != nil {
			return res, err
		}
		benches = append(benches, newBench(w))
	}
	if len(benches) == 0 {
		return res, fmt.Errorf("no workload named %q", only)
	}
	// Whatever happens, nothing the benchmark started outlives it.
	defer func() {
		for _, b := range benches {
			b.w.close()
		}
	}()

	for _, b := range benches {
		if err := b.setup(ctx); err != nil {
			return res, err
		}
	}
	if endToEnd {
		per := time.Duration(cfg.seconds / rounds * float64(time.Second))
		for r := 0; r < rounds; r++ {
			for _, b := range benches {
				b.round(ctx, per)
				runtime.GC()
			}
		}
	}
	if perLayer {
		for _, b := range benches {
			b.tracedStage(ctx, cfg.seconds)
		}
	}
	for _, b := range benches {
		if err := b.close(); err != nil {
			return res, fmt.Errorf("%s tear-down: %w", b.w.info().name, err)
		}
	}

	for _, b := range benches {
		wi := b.w.info()
		wr := workloadResult{
			Name: wi.name, Clients: wi.clients, Edges: wi.graphs[0].Len(), RowsPerOp: wi.answers[0].count,
			Samples:   len(b.samples) - failures(b.samples),
			Attempted: len(b.samples) + len(b.tracedOps),
			Failed:    failures(b.samples) + failures(b.tracedOps),
		}
		if b.firstErr != nil {
			wr.FirstError = b.firstErr.Error()
		}
		var err error
		if endToEnd {
			if wr.EndToEnd, err = emit(endToEndDefs, b.endToEnd()); err != nil {
				return res, err
			}
		}
		if perLayer {
			probes, err := runProbes(ctx, wi.query, wi.graphs[0], wi.sz.probeReps)
			if err != nil {
				return res, fmt.Errorf("%s probes: %w", wi.name, err)
			}
			for name, v := range probes {
				b.layer[name] = v
			}
			b.layer["process.goroutines_leaked"] = float64(b.leaked)
			if wr.PerLayer, err = emit(perLayerDefs, b.layer); err != nil {
				return res, err
			}
			wr.Spans = b.tracer.summarize()
			if cfg.outDir != "" {
				if err := b.tracer.write(filepath.Join(cfg.outDir, "trace-"+wi.name+".json")); err != nil {
					return res, err
				}
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if cfg.outDir != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return res, err
		}
		if err := os.WriteFile(filepath.Join(cfg.outDir, "result.json"), data, 0o644); err != nil {
			return res, err
		}
	}
	return res, nil
}

// printReport writes the human-readable report of a full run.
func printReport(res result) {
	m := res.Meta
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds/workload=%g\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit, m.Seed, m.Seconds)
	for _, w := range res.Workloads {
		fmt.Printf("\n== %s: %d client(s), %d edges, %d rows/op, %d timed ops\n",
			w.Name, w.Clients, w.Edges, w.RowsPerOp, w.Samples)
		fmt.Printf("  %-38s %14.6g %s (%d of %d ops)\n", "failed_share",
			ratio(float64(w.Failed), float64(w.Attempted)), "ratio", w.Failed, w.Attempted)
		if w.FirstError != "" {
			fmt.Printf("  first failure: %s\n", w.FirstError)
		}
		printMetrics(endToEndDefs, w.EndToEnd)
		fmt.Println("  -- per layer")
		printMetrics(perLayerDefs, w.PerLayer)
		fmt.Println("  -- spans of the traced pass: per-op median, self time")
		for _, s := range w.Spans {
			fmt.Printf("  %-38s %14.6g s %14.6g s (%d ops)\n", s.Name, s.MedianS, s.SelfS, s.Ops)
		}
	}
}

func printMetrics(defs []metricDef, values map[string]metricValue) {
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Printf("  %-38s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// driverLine is the one JSON object a --workload run prints last.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON line (the driver's form)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs; feeds data generation only")
		seconds      = flag.Float64("seconds", 15, "measured seconds per workload")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		smoke        = flag.Bool("smoke", false, "tiny graphs and a fraction of a second per workload")
		outDir       = flag.String("out", "", "directory for result.json and one trace file per workload (default: write none)")
		compare      = flag.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
		spec         = flag.String("spec", "BENCHMARK.json", "with -compare: the file that declares the bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg := config{seed: *seed, seconds: *seconds, sz: fullSizing, outDir: *outDir}
	if *smoke {
		cfg.sz = smokeSizing
		cfg.seconds = 0.3
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	ctx := context.Background()
	if *workloadName != "" {
		res, err := run(ctx, cfg, *workloadName, *trace == 0, *trace != 0)
		if err != nil {
			fatal(err)
		}
		w := res.Workloads[0]
		line := driverLine{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: w.EndToEnd}
		if *trace != 0 {
			line.Metrics = w.PerLayer
		}
		if w.FirstError != "" {
			fmt.Fprintln(os.Stderr, "benchmark: first failure:", w.FirstError)
		}
		out, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	res, err := run(ctx, cfg, "", true, true)
	if err != nil {
		fatal(err)
	}
	printReport(res)
	failed := 0
	for _, w := range res.Workloads {
		failed += w.Failed
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d ops failed or disagreed with the oracle", failed))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// --- -compare ---

// benchSpec is what the benchmark reads of BENCHMARK.json: -compare takes the
// bounds from it, main_test.go checks the emitted names and units against it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric: the base
// value, the new value, their ratio (new over base), how much worse the new
// one is as a share of the base, the declared bound, and the verdict. A
// workload's failed_share may not rise at all. It reports whether every row
// passed.
func compareFiles(out io.Writer, specPath, basePath, newPath string) (bool, error) {
	var spec benchSpec
	var base, next result
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &next); err != nil {
		return false, err
	}
	byName := make(map[string]workloadResult)
	for _, w := range next.Workloads {
		byName[w.Name] = w
	}
	pass := true
	fmt.Fprintf(out, "base: %s (commit %s, seed %d)\nnew:  %s (commit %s, seed %d)\n",
		basePath, base.Meta.Commit, base.Meta.Seed, newPath, next.Meta.Commit, next.Meta.Seed)
	fmt.Fprintf(out, "%-12s %-18s %12s %12s %9s %8s %6s  %s\n",
		"workload", "metric", "base", "new", "new/base", "worse", "bound", "verdict")
	row := func(workload, metric string, b, n, worse, bound float64) {
		verdict := "pass"
		if worse > bound {
			verdict = "FAIL"
			pass = false
		}
		fmt.Fprintf(out, "%-12s %-18s %12.6g %12.6g %9.4f %+8.4f %6.2f  %s\n",
			workload, metric, b, n, ratio(n, b), worse, bound, verdict)
	}
	for _, bw := range base.Workloads {
		nw, ok := byName[bw.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", newPath, bw.Name)
		}
		for _, d := range spec.EndToEnd {
			b, n := bw.EndToEnd[d.Name].Value, nw.EndToEnd[d.Name].Value
			if b == 0 {
				return false, fmt.Errorf("%s: %s %s is 0 or missing", basePath, bw.Name, d.Name)
			}
			worse := (n - b) / b
			if d.Better == "higher" {
				worse = (b - n) / b
			}
			row(bw.Name, d.Name, b, n, worse, d.Bound)
		}
		bf := ratio(float64(bw.Failed), float64(bw.Attempted))
		nf := ratio(float64(nw.Failed), float64(nw.Attempted))
		row(bw.Name, "failed_share", bf, nf, nf-bf, 0)
	}
	return pass, nil
}
