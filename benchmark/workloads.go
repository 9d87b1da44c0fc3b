package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"adj"
	"adj/internal/cluster"
	"adj/internal/dataset"
	"adj/internal/engine"
	"adj/internal/hypergraph"
	"adj/internal/relation"
)

const (
	// workers is the cluster size of every workload.
	workers = 4
	// programSeed is the program's own sampling seed. It is fixed: --seed
	// feeds data generation only, the program sees only the relations.
	programSeed = 1
	// churnVariants is how many graph contents serve-churn rotates through;
	// one op in churnVariants re-registers, so 25 % of its ops run cold.
	churnVariants = 4
)

// sizing fixes how much work each workload does. Both sides of a comparison
// run the same sizing.
type sizing struct {
	coldScale, warmScale, churnScale, tcpScale float64 // LJ scale per workload
	coldVariants                               int     // graphs cold-adj rotates through
	warmupOps                                  int     // discarded ops per client, inside set-up
	setupReps                                  int     // set-ups per run; setup_s is their median
	tracedOps                                  int     // least traced ops per client in the traced pass
	probeReps                                  int     // repetitions per layer probe
}

var (
	fullSizing  = sizing{coldScale: 0.05, warmScale: 2, churnScale: 0.5, tcpScale: 0.3, coldVariants: 4, warmupOps: 3, setupReps: 5, tracedOps: 20, probeReps: 20}
	smokeSizing = sizing{coldScale: 0.02, warmScale: 0.05, churnScale: 0.05, tcpScale: 0.05, coldVariants: 2, warmupOps: 1, setupReps: 1, tracedOps: 2, probeReps: 2}
)

// genGraph returns the LJ analogue at the given scale with its content drawn
// from seed.
func genGraph(scale float64, seed int64) *relation.Relation {
	spec := dataset.SpecOf("LJ", scale)
	spec.Seed = seed
	return dataset.Generate(spec)
}

// opStats sums the program-reported counters of one op (shuffle-tcp ops
// hold two engine runs).
type opStats struct {
	bytes, tuples, messages, chunks, dials, retries int64
	recvPeak                                        int64
	cacheBlocks, trieBuilds, trieHits               int64
	emittedRuns, emittedValues                      int64
	optimizeS, precomputeS, computeS, commModeledS  float64
	overlapS, queueS                                float64
	plan                                            string
}

func statsOf(r engine.Report) opStats {
	return opStats{
		bytes: r.BytesShuffled, tuples: r.TuplesShuffled, messages: r.Messages,
		chunks: r.StreamChunks, dials: r.TransportDials, retries: r.TransportRetries,
		recvPeak:    r.RecvPeakBytes,
		cacheBlocks: r.CacheBlocks, trieBuilds: r.TrieBuilds, trieHits: r.TrieCacheHits,
		emittedRuns: r.EmittedRuns, emittedValues: r.EmittedValues,
		optimizeS: r.Optimization, precomputeS: r.PreComputing, computeS: r.Computation,
		commModeledS: r.Communication, overlapS: r.OverlapSeconds, queueS: r.QueueSeconds,
		plan: r.Plan,
	}
}

// add folds o into s: counters and seconds sum, the receive peak is a
// maximum, plans concatenate.
func (s *opStats) add(o opStats) {
	s.bytes += o.bytes
	s.tuples += o.tuples
	s.messages += o.messages
	s.chunks += o.chunks
	s.dials += o.dials
	s.retries += o.retries
	if o.recvPeak > s.recvPeak {
		s.recvPeak = o.recvPeak
	}
	s.cacheBlocks += o.cacheBlocks
	s.trieBuilds += o.trieBuilds
	s.trieHits += o.trieHits
	s.emittedRuns += o.emittedRuns
	s.emittedValues += o.emittedValues
	s.optimizeS += o.optimizeS
	s.precomputeS += o.precomputeS
	s.computeS += o.computeS
	s.commModeledS += o.commModeledS
	s.overlapS += o.overlapS
	s.queueS += o.queueS
	s.plan += o.plan
}

// opSample is one op as the generator saw it.
type opSample struct {
	wallS  float64 // timed section only; oracle checks run after the clock stops
	traced bool
	err    error // program error, shed request or oracle mismatch
	st     opStats
}

// workload is one traffic shape. prepare makes the inputs and the oracle's
// answers (never timed); setup builds resident state and runs the discarded
// warm-up ops (timed as setup_s); op runs client's k-th op; close releases
// everything setup built.
type workload interface {
	info() *workloadInfo
	prepare(seed int64, sz sizing) error
	setup(ctx context.Context) error
	op(ctx context.Context, client, k int, ot *opTrace) opSample
	close() error
}

// workloadInfo is what the runner and the report need to know about a
// workload.
type workloadInfo struct {
	name    string
	clients int
	query   hypergraph.Query
	graphs  []*relation.Relation // graphs[0] also feeds the layer probes
	answers []answer
	sz      sizing
	srv     *adj.Server // nil for workloads without a serving tier
}

func (w *workloadInfo) info() *workloadInfo { return w }

// generate fills graphs and answers with n variants drawn from seed.
func (w *workloadInfo) generate(scale float64, seed int64, n int) error {
	w.graphs, w.answers = nil, nil
	for v := 0; v < n; v++ {
		g := genGraph(scale, seed*int64(n)+int64(v))
		ans, err := oracleJoin(w.query, w.query.BindGraph(g))
		if err != nil {
			return err
		}
		if ans.count == 0 {
			return fmt.Errorf("%s: variant %d has an empty result; pick another seed or scale", w.name, v)
		}
		w.graphs = append(w.graphs, g)
		w.answers = append(w.answers, ans)
	}
	return nil
}

// warmUp runs the discarded ops of a set-up and fails on the first bad one.
func warmUp(ctx context.Context, w workload) error {
	wi := w.info()
	for c := 0; c < wi.clients; c++ {
		for k := 0; k < wi.sz.warmupOps; k++ {
			if s := w.op(ctx, c, k, nil); s.err != nil {
				return fmt.Errorf("%s warm-up: %w", wi.name, s.err)
			}
		}
	}
	return nil
}

func newWorkloads() []workload {
	return []workload{
		&coldADJ{workloadInfo{name: "cold-adj", clients: 1, query: hypergraph.Q5()}},
		&serveWarm{workloadInfo: workloadInfo{name: "serve-warm", clients: 2, query: hypergraph.Q1()}},
		&serveChurn{workloadInfo: workloadInfo{name: "serve-churn", clients: 2, query: hypergraph.Q1()}},
		&shuffleTCP{workloadInfo: workloadInfo{name: "shuffle-tcp", clients: 1, query: hypergraph.Q1()}},
	}
}

// --- cold-adj: one complex join answered from scratch ---

type coldADJ struct{ workloadInfo }

func (w *coldADJ) prepare(seed int64, sz sizing) error {
	w.sz = sz
	return w.generate(sz.coldScale, seed, sz.coldVariants)
}

func (w *coldADJ) setup(ctx context.Context) error { return warmUp(ctx, w) }

func (w *coldADJ) close() error { return nil }

func (w *coldADJ) op(ctx context.Context, _, k int, ot *opTrace) (s opSample) {
	v := k % len(w.graphs)
	sw := startOp(ot)
	res, planS, err := w.answerFromScratch(ctx, w.graphs[v], ot)
	sw.stop(&s)
	if err != nil {
		s.err = err
		return s
	}
	s.st = statsOf(res.Report())
	// Planning happened in PrepareGraph; charge it to the op the way a
	// one-shot run does.
	s.st.optimizeS += planS
	s.err = checkCount(res, w.answers[v])
	return s
}

func (w *coldADJ) answerFromScratch(ctx context.Context, graph *relation.Relation, ot *opTrace) (res *adj.Results, planS float64, err error) {
	end := ot.span("session.open")
	sess, err := adj.Open(adj.Options{Workers: workers, Seed: programSeed, TrieStoreBytes: -1})
	end()
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		end := ot.span("session.close")
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		end()
	}()
	end = ot.span("session.register")
	err = sess.Register("edges", graph)
	end()
	if err != nil {
		return nil, 0, err
	}
	end = ot.span("session.prepare")
	pq, err := sess.PrepareGraph("ADJ", w.query, "edges")
	end()
	if err != nil {
		return nil, 0, err
	}
	end = ot.span("session.exec")
	res, err = pq.Exec(ctx, adj.CountOnly())
	end()
	return res, pq.PlanSeconds(), err
}

// stopwatch times an op's measured section; stopping it also closes the
// op's root span, so the two cover the same interval.
type stopwatch struct {
	t0 time.Time
	ot *opTrace
}

func startOp(ot *opTrace) stopwatch { return stopwatch{time.Now(), ot} }

func (sw stopwatch) stop(s *opSample) {
	s.wallS = time.Since(sw.t0).Seconds()
	sw.ot.finish()
}

func checkCount(res *adj.Results, want answer) error {
	if err := res.Err(); err != nil {
		return err
	}
	if res.Count() != want.count {
		return fmt.Errorf("oracle: count %d, want %d", res.Count(), want.count)
	}
	return nil
}

// --- serve-warm: the repeated-query serving path ---

type serveWarm struct {
	workloadInfo
	pq []*adj.PreparedQuery // one session per client
}

func (w *serveWarm) prepare(seed int64, sz sizing) error {
	w.sz = sz
	return w.generate(sz.warmScale, seed, 1)
}

// openServer starts a server with one shared session per client, each with
// graph registered as "edges" and the workload's query prepared.
func (w *workloadInfo) openServer(storeBytes int64, graph *relation.Relation) ([]*adj.Session, []*adj.PreparedQuery, error) {
	w.srv = adj.NewServer(adj.ServerOptions{
		TrieStoreBytes: storeBytes,
		Admission:      adj.AdmissionConfig{MaxConcurrent: w.clients},
	})
	var sessions []*adj.Session
	var pqs []*adj.PreparedQuery
	for c := 0; c < w.clients; c++ {
		sess, err := w.srv.OpenShared(adj.Options{Workers: workers, Seed: programSeed})
		if err != nil {
			return nil, nil, err
		}
		if err := sess.Register("edges", graph); err != nil {
			return nil, nil, err
		}
		pq, err := sess.PrepareGraph("ADJ", w.query, "edges")
		if err != nil {
			return nil, nil, err
		}
		sessions = append(sessions, sess)
		pqs = append(pqs, pq)
	}
	return sessions, pqs, nil
}

func (w *workloadInfo) closeServer() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.Close()
	w.srv = nil
	return err
}

func (w *serveWarm) setup(ctx context.Context) error {
	var err error
	if _, w.pq, err = w.openServer(0, w.graphs[0]); err != nil {
		return err
	}
	// One untimed-by-the-metric cold execution publishes the tries; every
	// op after it must be warm.
	if _, err := w.pq[0].Exec(ctx, adj.CountOnly()); err != nil {
		return err
	}
	return warmUp(ctx, w)
}

func (w *serveWarm) close() error { return w.closeServer() }

func (w *serveWarm) op(ctx context.Context, client, _ int, ot *opTrace) (s opSample) {
	sw := startOp(ot)
	res, rows, err := w.execAndFold(ctx, client, ot)
	sw.stop(&s)
	if err != nil {
		s.err = err
		return s
	}
	s.st = statsOf(res.Report())
	s.err = w.verify(res, rows)
	return s
}

// execAndFold runs the prepared query warm and drains the materialised
// output through NextRun, counting rows.
func (w *serveWarm) execAndFold(ctx context.Context, client int, ot *opTrace) (*adj.Results, int64, error) {
	end := ot.span("session.exec")
	res, err := w.pq[client].Exec(ctx)
	end()
	if err != nil {
		return nil, 0, err
	}
	end = ot.span("session.fold")
	var rows int64
	for {
		_, vals, ok := res.NextRun()
		if !ok {
			break
		}
		rows += int64(len(vals))
	}
	end()
	return res, rows, nil
}

// verify checks a materialised warm result against the oracle: count, the
// rows NextRun yielded, the row checksum, and that the op stayed warm.
func (w *serveWarm) verify(res *adj.Results, rows int64) error {
	want := w.answers[0]
	if err := checkCount(res, want); err != nil {
		return err
	}
	if rows != want.count {
		return fmt.Errorf("oracle: NextRun yielded %d rows, want %d", rows, want.count)
	}
	sum, err := resultChecksum(w.query, res.Rows())
	if err != nil {
		return err
	}
	if sum != want.checksum {
		return fmt.Errorf("oracle: row checksum %#x, want %#x", sum, want.checksum)
	}
	if rep := res.Report(); rep.TuplesShuffled != 0 || rep.TrieBuilds != 0 {
		return fmt.Errorf("warm op shuffled %d tuples and built %d tries, want 0", rep.TuplesShuffled, rep.TrieBuilds)
	}
	return nil
}

// --- serve-churn: writes beside reads on the same layers ---

type serveChurn struct {
	workloadInfo
	sessions   []*adj.Session
	pq         []*adj.PreparedQuery
	current    []int // variant each client's session has registered
	storeBytes int64
}

func (w *serveChurn) prepare(seed int64, sz sizing) error {
	w.sz = sz
	if err := w.generate(sz.churnScale, seed, churnVariants); err != nil {
		return err
	}
	// Size the shared store to 2.5 variants' published tries, so that
	// rotating through four variants must evict.
	srv := adj.NewServer(adj.ServerOptions{})
	defer srv.Close()
	sess, err := srv.OpenShared(adj.Options{Workers: workers, Seed: programSeed})
	if err != nil {
		return err
	}
	if err := sess.Register("edges", w.graphs[0]); err != nil {
		return err
	}
	pq, err := sess.PrepareGraph("ADJ", w.query, "edges")
	if err != nil {
		return err
	}
	if _, err := pq.Exec(context.Background(), adj.CountOnly()); err != nil {
		return err
	}
	w.storeBytes = srv.Stats().Store.Bytes * 5 / 2
	if w.storeBytes == 0 {
		return errors.New("serve-churn: the sizing execution published no tries")
	}
	return nil
}

func (w *serveChurn) setup(ctx context.Context) error {
	var err error
	if w.sessions, w.pq, err = w.openServer(w.storeBytes, w.graphs[0]); err != nil {
		return err
	}
	w.current = make([]int, w.clients)
	return warmUp(ctx, w)
}

func (w *serveChurn) close() error { return w.closeServer() }

func (w *serveChurn) op(ctx context.Context, client, k int, ot *opTrace) (s opSample) {
	sw := startOp(ot)
	res, err := w.refreshAndExec(ctx, client, k, ot)
	sw.stop(&s)
	if err != nil {
		s.err = err
		return s
	}
	s.st = statsOf(res.Report())
	s.err = checkCount(res, w.answers[w.current[client]])
	return s
}

// refreshAndExec re-registers the client's next variant on every
// churnVariants-th op, then executes count-only.
func (w *serveChurn) refreshAndExec(ctx context.Context, client, k int, ot *opTrace) (*adj.Results, error) {
	if k%churnVariants == 0 {
		// Clients start half a rotation apart, so they refresh different
		// contents and the store holds more than it can keep.
		w.current[client] = (k/churnVariants + client*churnVariants/w.clients) % len(w.graphs)
		end := ot.span("session.register")
		err := w.sessions[client].Register("edges", w.graphs[w.current[client]])
		end()
		if err != nil {
			return nil, err
		}
	}
	end := ot.span("session.exec")
	res, err := w.pq[client].Exec(ctx, adj.CountOnly())
	end()
	return res, err
}

// --- shuffle-tcp: multi-round execution over loopback sockets ---

type shuffleTCP struct {
	workloadInfo
	clus *cluster.Cluster
	rels []*relation.Relation
}

func (w *shuffleTCP) prepare(seed int64, sz sizing) error {
	w.sz = sz
	if err := w.generate(sz.tcpScale, seed, 1); err != nil {
		return err
	}
	w.rels = w.query.BindGraph(w.graphs[0])
	return nil
}

func (w *shuffleTCP) setup(ctx context.Context) error {
	tr, err := cluster.NewTCPTransport(workers)
	if err != nil {
		return err
	}
	w.clus = cluster.New(cluster.Config{N: workers, Transport: tr})
	return warmUp(ctx, w)
}

func (w *shuffleTCP) close() error {
	if w.clus == nil {
		return nil
	}
	err := w.clus.Close()
	w.clus = nil
	return err
}

func (w *shuffleTCP) op(ctx context.Context, _, _ int, ot *opTrace) (s opSample) {
	cfg := engine.Config{NumServers: workers, Seed: programSeed, Ctx: ctx, Cluster: w.clus}
	sw := startOp(ot)
	for _, e := range [...]struct{ engine, span string }{
		{"BigJoin", "engine.bigjoin_run"}, {"SparkSQL", "engine.sparksql_run"},
	} {
		end := ot.span(e.span)
		rep, err := engine.Engines()[e.engine](w.query, w.rels, cfg)
		end()
		switch {
		case err != nil:
			s.err = fmt.Errorf("%s: %w", e.engine, err)
		case rep.Failed:
			s.err = fmt.Errorf("%s: run failed: %s", e.engine, rep.FailReason)
		case rep.Results != w.answers[0].count:
			s.err = fmt.Errorf("oracle: %s count %d, want %d", e.engine, rep.Results, w.answers[0].count)
		}
		if s.err != nil {
			break
		}
		s.st.add(statsOf(rep))
	}
	sw.stop(&s)
	return s
}
