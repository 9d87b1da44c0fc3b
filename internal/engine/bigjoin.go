package engine

import (
	"fmt"
	"slices"
	"strconv"

	"adj/internal/cluster"
	"adj/internal/relation"
)

// proposeRound extends every binding with the candidate values of the
// proposer relation. Bindings travel to the proposer's index partition;
// the proposer relation's fragments are indexed by their bound attributes
// within the same exchange (a self-contained simulation of BigJoin's
// pre-built indexes).
func proposeRound(c *cluster.Cluster, phase string, prop *relation.Relation, prefix []string, attr string, cfg Config) error {
	boundAttrs := sharedAttrs(prop.Attrs, prefix)
	newAttrs := append(append([]string(nil), prefix...), attr)

	return c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			// Ship proposer fragments partitioned by bound attrs (index build).
			if frag, ok := w.Rels[prop.Name]; ok {
				if len(boundAttrs) == 0 {
					// Unconstrained: broadcast the projection on attr.
					proj := frag.Project(attr)
					if proj.Len() > 0 {
						err := w.EncodeRelationChunks(proj, 0, func(payload []byte, lo, hi, chunk int) error {
							for to := 0; to < w.N; to++ {
								if err := s.Send(cluster.Envelope{
									To: to, Key: "idx", Chunk: int32(chunk),
									Payload: payload, Tuples: int64(hi - lo), Weight: partWeight(chunk),
								}); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							return err
						}
					}
				} else {
					parts := frag.PartitionBy(attrIdx(frag.Attrs, boundAttrs), w.N)
					if err := sendParts(w, s, parts, "idx"); err != nil {
						return err
					}
				}
			}
			// Ship bindings partitioned by the same key.
			if b, ok := w.Rels["bindings"]; ok && b.Len() > 0 {
				if len(boundAttrs) == 0 {
					// Keep bindings local; candidates are broadcast.
					err := w.EncodeRelationChunks(b, 0, func(payload []byte, lo, hi, chunk int) error {
						return s.Send(cluster.Envelope{
							To: w.ID, Key: "bind", Chunk: int32(chunk),
							Payload: payload, Tuples: int64(hi - lo), Weight: partWeight(chunk),
						})
					})
					if err != nil {
						return err
					}
				} else {
					parts := b.PartitionBy(attrIdx(b.Attrs, boundAttrs), w.N)
					if err := sendParts(w, s, parts, "bind"); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			idx := relation.New(prop.Name, prop.Attrs...)
			if len(boundAttrs) == 0 {
				idx = relation.New(prop.Name, attr)
			}
			binds := relation.New("bindings", prefix...)
			var scratch relation.Relation
			for {
				e, ok, err := r.Recv()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				var dst *relation.Relation
				switch e.Key {
				case "idx":
					dst = idx
				case "bind":
					dst = binds
				default:
					return fmt.Errorf("bigjoin propose: bad key %q", e.Key)
				}
				if err := relation.DecodeAppend(e.Payload, dst, &scratch); err != nil {
					return cluster.CorruptPayload("bigjoin exchange", err)
				}
			}
			// Build candidate lists per bound-key, aborting as soon as the
			// proposals alone exceed the budget (SparkSQL/BigJoin-style
			// blowups must fail fast, not after materializing everything).
			// Each binding extends into a run — the binding prefix repeated
			// over its candidate values — so the extension writes through
			// the run writer.
			perWorkerCap := int64(0)
			if cfg.Budget > 0 {
				perWorkerCap = cfg.Budget
			}
			extended := relation.New("bindings", newAttrs...)
			cw := relation.NewColumnWriter(extended)
			overCap := func() bool {
				return perWorkerCap > 0 && int64(cw.Rows()) > perWorkerCap
			}
			bindCols := binds.Columns()
			bind := make([]relation.Value, len(bindCols))
			if len(boundAttrs) == 0 {
				cands := idx.Distinct(attr)
				for i := 0; i < binds.Len(); i++ {
					gatherRow(bind, bindCols, i)
					cw.BeginRun(bind)
					cw.AppendRun(cands)
					if overCap() {
						return ErrBudget
					}
				}
			} else {
				attrCol := idx.Column(idx.AttrIndex(attr))
				keyCols := pickCols(idx, boundAttrs)
				index := make(map[string][]relation.Value)
				kbuf := make([]relation.Value, len(boundAttrs))
				for i, v := range attrCol {
					gatherRow(kbuf, keyCols, i)
					k := keyString(kbuf)
					index[k] = append(index[k], v)
				}
				for k, vs := range index {
					slices.Sort(vs)
					index[k] = slices.Compact(vs)
				}
				bindKeyCols := pickCols(binds, boundAttrs)
				for i := 0; i < binds.Len(); i++ {
					gatherRow(kbuf, bindKeyCols, i)
					cands := index[keyString(kbuf)]
					if len(cands) == 0 {
						continue
					}
					gatherRow(bind, bindCols, i)
					cw.BeginRun(bind)
					cw.AppendRun(cands)
					if overCap() {
						return ErrBudget
					}
				}
			}
			w.Rels["bindings"] = extended
			return nil
		})
}

// verifyRound filters extended bindings against one relation: bindings are
// shuffled to the partition owning the relation's matching tuples and kept
// only when the relation contains the projection.
func verifyRound(c *cluster.Cluster, phase string, ver *relation.Relation, prefix []string, attr string, cfg Config) error {
	checkAttrs := append(sharedAttrs(ver.Attrs, prefix), attr)
	return c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			if frag, ok := w.Rels[ver.Name]; ok {
				parts := frag.PartitionBy(attrIdx(frag.Attrs, checkAttrs), w.N)
				if err := sendParts(w, s, parts, "idx"); err != nil {
					return err
				}
			}
			if b, ok := w.Rels["bindings"]; ok && b.Len() > 0 {
				parts := b.PartitionBy(attrIdx(b.Attrs, checkAttrs), w.N)
				if err := sendParts(w, s, parts, "bind"); err != nil {
					return err
				}
			}
			return nil
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			var idx, binds *relation.Relation
			var scratch relation.Relation
			for {
				e, ok, err := r.Recv()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if err := relation.DecodeInto(e.Payload, &scratch); err != nil {
					return cluster.CorruptPayload("bigjoin exchange", err)
				}
				var dst **relation.Relation
				switch e.Key {
				case "idx":
					dst = &idx
				case "bind":
					dst = &binds
				default:
					return fmt.Errorf("bigjoin verify: bad key %q", e.Key)
				}
				if *dst == nil {
					*dst = relation.New(scratch.Name, scratch.Attrs...)
				}
				(*dst).AppendAll(&scratch)
			}
			if binds == nil {
				w.Rels["bindings"] = relation.New("bindings")
				return nil
			}
			if idx == nil {
				w.Rels["bindings"] = relation.New("bindings", binds.Attrs...)
				return nil
			}
			keep := binds.Semijoin(idx, checkAttrs)
			keep.Name = "bindings"
			w.Rels["bindings"] = keep
			return nil
		})
}

func keyString(vals []relation.Value) string {
	b := make([]byte, 0, len(vals)*9)
	for _, v := range vals {
		b = strconv.AppendInt(b, int64(v), 36)
		b = append(b, '|')
	}
	return string(b)
}

// pickCols returns r's columns for the named attributes, in that order.
func pickCols(r *relation.Relation, attrs []string) [][]relation.Value {
	cols := make([][]relation.Value, len(attrs))
	for j, c := range attrIdx(r.Attrs, attrs) {
		cols[j] = r.Column(c)
	}
	return cols
}

// gatherRow copies row i of cols into dst (len(dst) == len(cols)).
func gatherRow(dst []relation.Value, cols [][]relation.Value, i int) {
	for j, col := range cols {
		dst[j] = col[i]
	}
}
