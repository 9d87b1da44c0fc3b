package engine

import (
	"fmt"
	"slices"

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
			if err := recvRound(r, "propose", idx, binds); err != nil {
				return err
			}
			extended, err := extendBindings(binds, idx, boundAttrs, attr, cfg.Budget)
			if err != nil {
				return err
			}
			w.Rels["bindings"] = extended
			return nil
		})
}

// extendBindings is a propose round's local step: every binding is extended
// by the distinct values idx holds for attr among the rows that agree with
// the binding on boundAttrs, in binding order, candidates ascending. With
// no bound attribute every row of idx carries the same (empty) key, so
// every binding gets idx's whole distinct attr column.
//
// Count, then fill: idx is indexed by its bound attributes and each key's
// candidates become one sorted, de-duplicated run inside a single backing
// slice; one pass over the bindings records each one's key and sums the run
// lengths, so proposals over the budget fail with ErrBudget before any
// output is allocated (SparkSQL/BigJoin-style blowups must fail fast); the
// output columns are then reserved once at their exact size and each
// binding extends into a run — the binding repeated over its candidates —
// through the run writer.
func extendBindings(binds, idx *relation.Relation, boundAttrs []string, attr string, budget int64) (*relation.Relation, error) {
	extended := relation.New("bindings", append(slices.Clip(binds.Attrs), attr)...)
	ix := relation.NewIndex(pickCols(idx, boundAttrs), idx.Len())
	// cands[candOff[g]:candOff[g+1]] are key g's candidates.
	cands := make([]relation.Value, 0, idx.Len())
	candOff := make([]int32, ix.Groups()+1)
	attrCol := idx.Column(idx.AttrIndex(attr))
	for g := 0; g < ix.Groups(); g++ {
		lo := len(cands)
		for _, row := range ix.Rows(int32(g)) {
			cands = append(cands, attrCol[row])
		}
		slices.Sort(cands[lo:])
		cands = cands[:lo+len(slices.Compact(cands[lo:]))]
		candOff[g+1] = int32(len(cands))
	}

	bindKey := pickCols(binds, boundAttrs)
	group := make([]int32, binds.Len())
	total := int64(0)
	for i := range group {
		g := ix.Lookup(bindKey, i)
		group[i] = g
		if g < 0 {
			continue
		}
		total += int64(candOff[g+1] - candOff[g])
		if budget > 0 && total > budget {
			return nil, ErrBudget
		}
	}

	cw := relation.NewColumnWriter(extended)
	cw.Reserve(int(total))
	bindCols := binds.Columns()
	bind := make([]relation.Value, len(bindCols))
	for i, g := range group {
		if g < 0 {
			continue
		}
		gatherRow(bind, bindCols, i)
		cw.BeginRun(bind)
		cw.AppendRun(cands[candOff[g]:candOff[g+1]])
	}
	return extended, nil
}

// verifyRound filters extended bindings against one relation: bindings are
// shuffled to the partition owning the relation's matching tuples and kept
// only when the relation contains the projection.
func verifyRound(c *cluster.Cluster, phase string, ver *relation.Relation, prefix []string, attr string) error {
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
			idx := relation.New(ver.Name, ver.Attrs...)
			binds := relation.New("bindings", append(slices.Clip(prefix), attr)...)
			if err := recvRound(r, "verify", idx, binds); err != nil {
				return err
			}
			w.Rels["bindings"] = binds.Semijoin(idx, checkAttrs)
			return nil
		})
}

// recvRound drains one BigJoin round's stream on a worker, folding "idx"
// chunks into idx and "bind" chunks into binds. Both targets carry the
// schema the round expects, so a chunk of any other shape is a corrupt
// payload, not a panic further down.
func recvRound(r cluster.StreamReceiver, round string, idx, binds *relation.Relation) error {
	var scratch relation.Relation
	for {
		e, ok, err := r.Recv()
		if err != nil || !ok {
			return err
		}
		var dst *relation.Relation
		switch e.Key {
		case "idx":
			dst = idx
		case "bind":
			dst = binds
		default:
			return fmt.Errorf("bigjoin %s: bad key %q", round, e.Key)
		}
		if err := relation.DecodeAppend(e.Payload, dst, &scratch); err != nil {
			return cluster.CorruptPayload("bigjoin exchange", err)
		}
	}
}

// pickCols returns r's columns for the named attributes, in that order.
func pickCols(r *relation.Relation, attrs []string) [][]relation.Value {
	cols := make([][]relation.Value, len(attrs))
	for j, a := range attrs {
		cols[j] = r.Column(r.AttrIndex(a))
	}
	return cols
}

// gatherRow copies row i of cols into dst (len(dst) == len(cols)).
func gatherRow(dst []relation.Value, cols [][]relation.Value, i int) {
	for j, col := range cols {
		dst[j] = col[i]
	}
}
