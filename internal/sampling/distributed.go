package sampling

import (
	"fmt"
	"sort"
	"time"

	"adj/internal/cluster"
	"adj/internal/leapfrog"
	"adj/internal/relation"
)

// Distributed sampling (§IV "Distributed Sampling"): instead of HCube-
// shuffling the full database and sampling on every server, the database
// is first *reduced*:
//
//  1. every worker projects its fragments of relations containing A onto A
//     and the projections are exchanged to compute val(A) exactly,
//  2. the coordinator samples S' ⊆ val(A),
//  3. workers semijoin-filter their fragments of A-relations against S',
//  4. only the reduced fragments are broadcast; every worker then evaluates
//     a disjoint share of the samples with constrained Leapfrog.
//
// Its steps record under fixed sample/* phase names (sample/vala,
// sample/reduce, sample/count). The engine's report fold buckets by name
// prefix and only "optimize" reaches Optimization, so on an engine's
// cluster these steps would land in Communication and Computation.

// DistributedEstimate runs the reduced-database sampler on a cluster whose
// workers hold fragments of the named relations (attribute-renamed query
// bindings). relNames/relAttrs describe the bound relations; order is the
// attribute order to sample under.
func DistributedEstimate(c *cluster.Cluster, relAttrs map[string][]string, order []string, cfg Config) (Estimate, error) {
	if len(order) == 0 {
		return Estimate{}, fmt.Errorf("sampling: empty order")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 1000
	}
	t0 := time.Now()
	attr := order[0]

	// Step 1: compute val(A) by exchanging per-worker projections,
	// value-partitioned so each worker intersects a disjoint slice.
	withA := relationsWith(relAttrs, attr)
	if len(withA) == 0 {
		return Estimate{}, fmt.Errorf("sampling: no relation contains first attribute %q", attr)
	}
	partials := make([][]relation.Value, c.N)
	err := c.StreamExchange("sample/vala",
		func(w *cluster.Worker, s cluster.StreamSender) error {
			for _, name := range withA {
				frag, ok := w.Rels[name]
				if !ok {
					continue
				}
				proj := frag.Project(attr)
				parts := proj.PartitionBy([]int{0}, c.N)
				for to, p := range parts {
					if p.Len() == 0 {
						continue
					}
					err := s.Send(cluster.Envelope{
						To:      to,
						Key:     "proj/" + name,
						Payload: w.EncodeRelation(p),
						Tuples:  int64(p.Len()),
					})
					if err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(w *cluster.Worker, rcv cluster.StreamReceiver) error {
			// Per relation, union the received values; then intersect across
			// relations.
			perRel := make(map[string]map[relation.Value]bool, len(withA))
			for {
				e, ok, err := rcv.Recv()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				r, err := relation.Decode(e.Payload)
				if err != nil {
					return err
				}
				name := e.Key[len("proj/"):]
				set, ok := perRel[name]
				if !ok {
					set = make(map[relation.Value]bool)
					perRel[name] = set
				}
				for _, v := range r.Column(0) {
					set[v] = true
				}
			}
			var local []relation.Value
			if len(perRel) == len(withA) {
				first := perRel[withA[0]]
				for v := range first {
					inAll := true
					for _, name := range withA[1:] {
						if !perRel[name][v] {
							inAll = false
							break
						}
					}
					if inAll {
						local = append(local, v)
					}
				}
			}
			sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
			partials[w.ID] = local
			return nil
		})
	if err != nil {
		return Estimate{}, err
	}
	var vals []relation.Value
	for _, p := range partials {
		vals = append(vals, p...)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	est := Estimate{ValA: len(vals), LevelCounts: make([]float64, len(order)), LevelOps: make([]int64, len(order))}
	if len(vals) == 0 {
		est.Seconds = time.Since(t0).Seconds()
		return est, nil
	}

	// Step 2: sample S'.
	samples := drawSamples(vals, cfg)
	distinct := make(map[relation.Value]bool)
	for _, v := range samples {
		distinct[v] = true
	}
	sampleSet := make([]relation.Value, 0, len(distinct))
	for v := range distinct {
		sampleSet = append(sampleSet, v)
	}
	sort.Slice(sampleSet, func(i, j int) bool { return sampleSet[i] < sampleSet[j] })

	// Steps 3+4: semijoin-reduce A-relations against S' and broadcast the
	// reduced database; every worker receives all fragments.
	reduced := make([]map[string]*relation.Relation, c.N)
	err = c.StreamExchange("sample/reduce",
		func(w *cluster.Worker, s cluster.StreamSender) error {
			for name, attrs := range relAttrs {
				frag, ok := w.Rels[name]
				if !ok {
					continue
				}
				send := frag
				if containsStr(attrs, attr) {
					send = frag.SemijoinValues(attr, sampleSet)
				}
				if send.Len() == 0 {
					continue
				}
				payload := w.EncodeRelation(send)
				for to := 0; to < w.N; to++ {
					err := s.Send(cluster.Envelope{
						To:      to,
						Key:     "red/" + name,
						Payload: payload,
						Tuples:  int64(send.Len()),
					})
					if err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(w *cluster.Worker, rcv cluster.StreamReceiver) error {
			db := make(map[string]*relation.Relation)
			for {
				e, ok, err := rcv.Recv()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				r, err := relation.Decode(e.Payload)
				if err != nil {
					return err
				}
				name := e.Key[len("red/"):]
				if acc, ok := db[name]; ok {
					acc.AppendAll(r)
				} else {
					db[name] = r
				}
			}
			reduced[w.ID] = db
			return nil
		})
	if err != nil {
		return Estimate{}, err
	}

	// Step 5: each worker evaluates a contiguous share of the samples — one
	// shard of the same evaluator the local sampler shards across cores.
	names := make([]string, 0, len(relAttrs))
	for name := range relAttrs {
		names = append(names, name)
	}
	sort.Strings(names)
	accs := make([]Accum, c.N)
	err = c.Parallel("sample/count", func(w *cluster.Worker) error {
		db := reduced[w.ID]
		rels := make([]*relation.Relation, len(names))
		for i, name := range names {
			r, ok := db[name]
			if !ok {
				r = relation.New(name, relAttrs[name]...)
			}
			rels[i] = r
		}
		lo := w.ID * len(samples) / w.N
		hi := (w.ID + 1) * len(samples) / w.N
		acc, err := countSamples(leapfrog.BuildTries(rels, order), order, samples[lo:hi], cfg, 1)
		accs[w.ID] = acc
		return err
	})
	if err != nil {
		return Estimate{}, err
	}
	var total Accum
	for _, a := range accs {
		total.Add(a)
	}
	est.absorb(total, len(vals), cfg.Samples)
	est.Seconds = time.Since(t0).Seconds()
	return est, nil
}

func relationsWith(relAttrs map[string][]string, attr string) []string {
	var out []string
	for name, attrs := range relAttrs {
		if containsStr(attrs, attr) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
