package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"adj/internal/admission"
	"adj/internal/blockcache"
	"adj/internal/cluster"
	"adj/internal/costmodel"
	"adj/internal/deltaenc"
	"adj/internal/engine"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/leapfrog"
	"adj/internal/optimizer"
	"adj/internal/relation"
	"adj/internal/sampling"
	"adj/internal/trie"
)

// Layer probes time one exported entry point of one module on the
// workload's own relations, outside any op. Each runs reps times and
// reports the median, so a regression in a layer shows under that layer's
// name even when the op that uses it has other costs.

// timeReps runs fn reps times and returns the median of the seconds it
// reports. fn times its own measured section, so per-repetition preparation
// stays outside.
func timeReps(reps int, fn func() (float64, error)) (float64, error) {
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s, err := fn()
		if err != nil {
			return 0, err
		}
		secs = append(secs, s)
	}
	return median(secs), nil
}

// timed adapts a function without preparation to timeReps.
func timed(fn func() error) func() (float64, error) {
	return func() (float64, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0).Seconds(), err
	}
}

func perItemNs(seconds float64, items int) float64 { return ratio(seconds*1e9, float64(items)) }

// runProbes measures every probe-backed per-layer metric on graph under q.
func runProbes(ctx context.Context, q hypergraph.Query, graph *relation.Relation, reps int) (map[string]float64, error) {
	m := make(map[string]float64)
	rels := q.BindGraph(graph)
	order := q.Attrs()
	for _, probe := range []func() error{
		func() error { return probePlanning(ctx, m, q, rels, order, reps) },
		func() error { return probeShuffle(m, rels, order, reps) },
		func() error { return probeCodec(m, graph, reps) },
		func() error { return probeExchange(ctx, m, graph, reps) },
		func() error { return probeTrieAndStore(m, graph, reps) },
		func() error { return probeLeapfrog(m, rels, order, reps) },
		func() error { return probeAdmission(ctx, m, reps) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probePlanning times the planning stack top-down: the whole of
// engine.Prepare, then the sampler, the co-optimizer, the cost-model
// calibration and the share optimizer on their own.
func probePlanning(ctx context.Context, m map[string]float64, q hypergraph.Query, rels []*relation.Relation, order []string, reps int) error {
	cfg := engine.Config{NumServers: workers, Seed: programSeed, Ctx: ctx}
	var err error
	if m["engine.prepare_s"], err = timeReps(reps, timed(func() error {
		_, err := engine.Prepare("ADJ", q, rels, cfg)
		return err
	})); err != nil {
		return err
	}
	if m["sampling.estimate_s"], err = timeReps(reps, timed(func() error {
		_, err := sampling.EstimateCardinality(rels, order, sampling.Config{Samples: 1000, Seed: programSeed})
		return err
	})); err != nil {
		return err
	}
	if m["optimizer.cooptimize_s"], err = timeReps(reps, timed(func() error {
		opt, err := optimizer.New(q, rels, optimizer.Options{
			Params: costmodel.DefaultParams(workers), Samples: 1000, Seed: programSeed,
		})
		if err != nil {
			return err
		}
		_, err = opt.CoOptimize()
		return err
	})); err != nil {
		return err
	}
	if m["costmodel.calibrate_s"], err = timeReps(reps, timed(func() error {
		costmodel.CalibrateBetaTrie(1 << 14)
		costmodel.CalibrateJoinRate()
		return nil
	})); err != nil {
		return err
	}
	m["hcube.optimize_shares_s"], err = timeReps(reps, timed(func() error {
		_, err := hcube.Optimize(hcube.InfoOf(rels), hcube.Config{Attrs: order, NumServers: workers})
		return err
	}))
	return err
}

// probeShuffle times one Merge-kind HCube shuffle of the query's relations
// on a resident local cluster.
func probeShuffle(m map[string]float64, rels []*relation.Relation, order []string, reps int) error {
	infos := hcube.InfoOf(rels)
	shares, err := hcube.Optimize(infos, hcube.Config{Attrs: order, NumServers: workers})
	if err != nil {
		return err
	}
	plan := hcube.Plan{Shares: shares, Rels: infos, Kind: hcube.Merge, TrieOrder: order}
	c := cluster.New(cluster.Config{N: workers})
	defer c.Close()
	var tuples int64
	secs, err := timeReps(reps, func() (float64, error) {
		c.ResetRun()
		c.ResetMetrics()
		c.LoadDatabase(rels)
		t0 := time.Now()
		err := hcube.Run(c, "shuffle", plan)
		s := time.Since(t0).Seconds()
		tuples = c.Metrics.TotalTuplesSent()
		return s, err
	})
	m["hcube.shuffle_s"] = secs
	m["hcube.shuffle_tuples_per_s"] = ratio(float64(tuples), secs)
	return err
}

// probeCodec times the relation codec, partitioner, sort and hash join, and
// the delta run codec under them, on what one of the four workers holds.
func probeCodec(m map[string]float64, graph *relation.Relation, reps int) error {
	part := graph.PartitionBy([]int{0}, workers)[0]
	n := part.Len()
	if n == 0 {
		return fmt.Errorf("codec probe: empty partition")
	}
	var enc []byte
	secs, _ := timeReps(reps, timed(func() error {
		enc = relation.AppendEncodeRange(enc[:0], part, 0, n)
		return nil
	}))
	m["relation.encode_ns_per_tuple"] = perItemNs(secs, n)
	m["relation.wire_bytes_per_tuple"] = ratio(float64(len(enc)), float64(n))

	var scratch relation.Relation
	secs, err := timeReps(reps, func() (float64, error) {
		dst := relation.New(part.Name, part.Attrs...)
		t0 := time.Now()
		err := relation.DecodeAppend(enc, dst, &scratch)
		s := time.Since(t0).Seconds()
		if err == nil && dst.Len() != n {
			err = fmt.Errorf("codec probe: decoded %d tuples, encoded %d", dst.Len(), n)
		}
		return s, err
	})
	if err != nil {
		return err
	}
	m["relation.decode_ns_per_tuple"] = perItemNs(secs, n)

	secs, _ = timeReps(reps, timed(func() error {
		graph.PartitionBy([]int{1}, workers)
		return nil
	}))
	m["relation.partition_ns_per_tuple"] = perItemNs(secs, graph.Len())

	// Sorting by (dst, src) reorders a relation that arrives sorted by
	// (src, dst); every repetition sorts a fresh copy.
	secs, _ = timeReps(reps, func() (float64, error) {
		c := part.Clone()
		t0 := time.Now()
		c.SortByColumns([]int{1, 0})
		return time.Since(t0).Seconds(), nil
	})
	m["relation.sort_ns_per_tuple"] = perItemNs(secs, n)

	// The distributed binary join's local step: both sides hashed on the
	// join attribute, one worker's share of each.
	left := graph.PartitionBy([]int{1}, workers)[0].Renamed("L")
	left.Attrs = []string{"a", "b"}
	right := part.Renamed("R")
	right.Attrs = []string{"b", "c"}
	var joined int
	secs, _ = timeReps(reps, timed(func() error {
		joined = relation.HashJoin(left, right).Len()
		return nil
	}))
	m["relation.hashjoin_ns_per_tuple"] = perItemNs(secs, left.Len()+right.Len()+joined)

	col := part.Column(1)
	var run []byte
	secs, _ = timeReps(reps, timed(func() error {
		run = deltaenc.AppendRun(run[:0], col)
		return nil
	}))
	m["deltaenc.append_run_ns_per_value"] = perItemNs(secs, len(col))
	out := make([]int64, len(col))
	secs, err = timeReps(reps, timed(func() error {
		_, err := deltaenc.DecodeRun(run, out)
		return err
	}))
	m["deltaenc.decode_run_ns_per_value"] = perItemNs(secs, len(col))
	return err
}

// probeExchange times an all-to-all StreamExchange of pre-encoded payloads,
// every worker sending its partition of graph to every worker, over the
// in-process transport and over loopback TCP.
func probeExchange(ctx context.Context, m map[string]float64, graph *relation.Relation, reps int) error {
	var payloads [][]byte
	var total int
	for _, p := range graph.PartitionBy([]int{0}, workers) {
		enc := relation.Encode(p)
		payloads = append(payloads, enc)
		total += len(enc) * workers
	}
	exchange := func(tr cluster.Transport) (float64, error) {
		c := cluster.New(cluster.Config{N: workers, Transport: tr})
		defer c.Close()
		c.SetContext(ctx)
		secs, err := timeReps(reps, timed(func() error {
			return c.StreamExchange("shuffle",
				func(w *cluster.Worker, s cluster.StreamSender) error {
					for to := 0; to < workers; to++ {
						if err := s.Send(cluster.Envelope{To: to, Key: "probe", Payload: payloads[w.ID]}); err != nil {
							return err
						}
					}
					return nil
				},
				func(_ *cluster.Worker, r cluster.StreamReceiver) error {
					for {
						if _, ok, err := r.Recv(); err != nil || !ok {
							return err
						}
					}
				})
		}))
		return ratio(float64(total)/1e6, secs), err
	}
	var err error
	if m["cluster.local_exchange_mb_s"], err = exchange(cluster.NewLocalTransport(workers)); err != nil {
		return err
	}
	tcp, err := cluster.NewTCPTransport(workers)
	if err != nil {
		return err
	}
	m["cluster.tcp_exchange_mb_s"], err = exchange(tcp)
	return err
}

// probeTrieAndStore times block-trie construction and merge on one worker's
// blocks, and the shared store's publish and adopt calls on those tries.
func probeTrieAndStore(m map[string]float64, graph *relation.Relation, reps int) error {
	const blocks = 8
	parts := graph.PartitionBy([]int{0}, blocks)
	builder := trie.NewBuilder()
	tries := make([]*trie.Trie, len(parts))
	secs, _ := timeReps(reps, timed(func() error {
		for i, p := range parts {
			tries[i] = builder.Build(p, p.Attrs)
		}
		return nil
	}))
	m["trie.build_ns_per_tuple"] = perItemNs(secs, graph.Len())

	var merged *trie.Trie
	secs, _ = timeReps(reps, timed(func() error {
		merged = trie.Merge(tries)
		return nil
	}))
	m["trie.merge_ns_per_tuple"] = perItemNs(secs, merged.Len())
	m["trie.mem_bytes_per_tuple"] = ratio(float64(merged.MemBytes()), float64(merged.Len()))

	store := blockcache.NewStore(0)
	manifest := blockcache.ManifestID{Content: 1, Layout: 1}
	sigs := make([]int, len(tries))
	secs, _ = timeReps(reps, timed(func() error {
		for i, t := range tries {
			sigs[i] = i
			store.Put(blockcache.BlockID{Content: manifest.Content, Layout: manifest.Layout, Sig: i}, t)
		}
		store.PutManifest(manifest, sigs)
		return nil
	}))
	m["blockcache.store_put_ns"] = perItemNs(secs, len(tries))
	secs, err := timeReps(reps, timed(func() error {
		if got, ok := store.Snapshot(manifest); !ok || len(got) != len(tries) {
			return fmt.Errorf("store probe: snapshot returned %d of %d blocks", len(got), len(tries))
		}
		return nil
	}))
	m["blockcache.store_snapshot_ns"] = secs * 1e9
	return err
}

// probeLeapfrog times the join kernel on full tries of the query's
// relations: counting, emitting into a column writer, and the extender the
// sampler and BigJoin use.
func probeLeapfrog(m map[string]float64, rels []*relation.Relation, order []string, reps int) error {
	tries := leapfrog.BuildTries(rels, order)
	var results int64
	secs, err := timeReps(reps, timed(func() error {
		st, err := leapfrog.Join(tries, order, leapfrog.Options{})
		results = st.Results
		return err
	}))
	if err != nil {
		return err
	}
	m["leapfrog.count_ns_per_result"] = ratio(secs*1e9, float64(results))

	secs, err = timeReps(reps, func() (float64, error) {
		out := relation.New("out", order...)
		t0 := time.Now()
		st, err := leapfrog.Join(tries, order, leapfrog.Options{Sink: relation.NewColumnWriter(out)})
		s := time.Since(t0).Seconds()
		if err == nil && (st.EmittedValues != results || int64(out.Len()) != results) {
			err = fmt.Errorf("leapfrog probe: emitted %d values into %d rows, counted %d", st.EmittedValues, out.Len(), results)
		}
		return s, err
	})
	if err != nil {
		return err
	}
	m["leapfrog.emit_ns_per_result"] = ratio(secs*1e9, float64(results))

	ext, err := leapfrog.NewExtender(tries, order)
	if err != nil {
		return err
	}
	firsts, _ := ext.Extend(nil, 0)
	if len(firsts) > 4096 {
		firsts = firsts[:4096]
	}
	firsts = slices.Clone(firsts) // the next Extend may reuse the returned slice
	binding := make([]relation.Value, 1)
	secs, _ = timeReps(reps, timed(func() error {
		for _, v := range firsts {
			binding[0] = v
			ext.Extend(binding, 1)
		}
		return nil
	}))
	m["leapfrog.extend_ns_per_binding"] = perItemNs(secs, len(firsts))
	return nil
}

// probeAdmission times an uncontended Admit and Release.
func probeAdmission(ctx context.Context, m map[string]float64, reps int) error {
	const calls = 1000
	ctrl := admission.NewController(admission.Config{MaxConcurrent: 1})
	secs, err := timeReps(reps, timed(func() error {
		for i := 0; i < calls; i++ {
			t, err := ctrl.Admit(ctx, admission.Request{})
			if err != nil {
				return err
			}
			t.Release(admission.Usage{})
		}
		return nil
	}))
	m["admission.admit_release_ns"] = perItemNs(secs, calls)
	return err
}
