package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"adj/internal/cluster"
	"adj/internal/relation"
)

// distributedJoin computes A ⋈ B over worker fragments: both sides are
// hash-partitioned on their shared attributes, each worker joins its
// partitions locally, and the result fragments are stored as outName. This
// is the kernel of the SparkSQL-style BinaryJoin baseline and of ADJ's bag
// pre-computation. Returns the global result size.
//
// With no shared attributes the smaller side is broadcast (a cross
// product; rare, but required for generality).
func distributedJoin(c *cluster.Cluster, phase string, aName string, aAttrs []string,
	bName string, bAttrs []string, outName string, budget int64) (int64, error) {

	shared := sharedAttrs(aAttrs, bAttrs)
	if len(shared) == 0 {
		return distributedCross(c, phase, aName, aAttrs, bName, bAttrs, outName, budget)
	}
	aCols := attrIdx(aAttrs, shared)
	bCols := attrIdx(bAttrs, shared)
	aShare, bShare := globalSize(c, aName)/int64(c.N), globalSize(c, bName)/int64(c.N)

	err := c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			if err := sendParts(w, s, w.Rels[aName], aCols, "L"); err != nil {
				return err
			}
			return sendParts(w, s, w.Rels[bName], bCols, "R")
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			left := relation.New(aName, aAttrs...)
			right := relation.New(bName, bAttrs...)
			if err := recvInto(w, r, "binary join exchange", recvTarget{"L", left, aShare}, recvTarget{"R", right, bShare}); err != nil {
				return err
			}
			res, err := relation.HashJoinLimit(left, right, int(budget))
			if err != nil {
				return ErrBudget
			}
			recycle(w, left, right)
			res.Name = outName
			w.Rels[outName] = res
			return nil
		})
	return joinedSize(c, outName, budget, err)
}

// joinedSize is a distributed join's return: the exchange's error, else the
// global size of outName, over budget or not.
func joinedSize(c *cluster.Cluster, outName string, budget int64, err error) (int64, error) {
	if err != nil {
		if errors.Is(err, ErrBudget) {
			return 0, ErrBudget
		}
		return 0, err
	}
	size := globalSize(c, outName)
	if budget > 0 && size > budget {
		return size, ErrBudget
	}
	return size, nil
}

// globalSize is the number of tuples of relation name over all workers.
func globalSize(c *cluster.Cluster, name string) int64 {
	return c.GatherCounts(func(w *cluster.Worker) int64 { return int64(w.LocalSize(name)) })
}

// distributedCross broadcasts the smaller side and joins locally.
func distributedCross(c *cluster.Cluster, phase string, aName string, aAttrs []string,
	bName string, bAttrs []string, outName string, budget int64) (int64, error) {

	aSize, bSize := globalSize(c, aName), globalSize(c, bName)
	small, smallAttrs, smallSize := bName, bAttrs, bSize
	big, bigAttrs := aName, aAttrs
	if aSize < bSize {
		small, smallAttrs, smallSize = aName, aAttrs, aSize
		big, bigAttrs = bName, bAttrs
	}
	err := c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			return sendWhole(w, s, w.Rels[small], "B", everyWorker(w.N)...)
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			smallRel := relation.New(small, smallAttrs...)
			if err := recvInto(w, r, "binary join exchange", recvTarget{"B", smallRel, smallSize}); err != nil {
				return err
			}
			// bigRel is the worker's own fragment, not a receive target:
			// it is not this exchange's to recycle.
			bigRel, ok := w.Rels[big]
			if !ok {
				bigRel = relation.New(big, bigAttrs...)
			}
			var res *relation.Relation
			if big == aName {
				res = relation.HashJoin(bigRel, smallRel)
			} else {
				res = relation.HashJoin(smallRel, bigRel)
			}
			recycle(w, smallRel)
			res.Name = outName
			w.Rels[outName] = res
			return nil
		})
	return joinedSize(c, outName, budget, err)
}

// distributedSemijoin computes A ⋉ B over worker fragments: A is
// hash-partitioned on the shared attributes, B's projection onto them
// (deduplicated per fragment to cut volume) is partitioned the same way,
// and each worker keeps the A tuples with a match. The result fragments
// are stored as outName. This is the hybrid plan's pre-reduction: a
// selective acyclic fragment shrinks a cyclic-core relation before the
// core is shuffled.
func distributedSemijoin(c *cluster.Cluster, phase string, aName string, aAttrs []string,
	bName string, bAttrs []string, outName string) error {

	shared := sharedAttrs(aAttrs, bAttrs)
	if len(shared) == 0 {
		return fmt.Errorf("distributedSemijoin: %s and %s share no attributes", aName, bName)
	}
	aCols := attrIdx(aAttrs, shared)
	aShare := globalSize(c, aName) / int64(c.N)

	return c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			if err := sendParts(w, s, w.Rels[aName], aCols, "L"); err != nil {
				return err
			}
			keys := w.Rels[bName]
			if keys != nil {
				keys = keys.ProjectMulti(shared...).SortDedup()
			}
			return sendParts(w, s, keys, attrIdx(shared, shared), "R")
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			left := relation.New(aName, aAttrs...)
			keys := relation.New(bName, shared...)
			if err := recvInto(w, r, "semijoin exchange", recvTarget{"L", left, aShare}, recvTarget{"R", keys, 0}); err != nil {
				return err
			}
			res := left.Semijoin(keys, shared)
			recycle(w, left, keys)
			res.Name = outName
			w.Rels[outName] = res
			return nil
		})
}

// The data path of a multi-round exchange (README.md, "The data path of a
// multi-round exchange"). Every distributed join, semijoin and BigJoin
// round is one StreamExchange whose producer calls sendParts (sendWhole for
// a broadcast) per relation it ships and whose consumer calls recvInto,
// runs its kernel on the received relations and recycles them. Partition
// backings and receive targets live in buffers the worker lends and takes
// back, which is a contract on every kernel here: its output may never
// alias its input — HashJoin, Semijoin (keepIndexed → gather) and
// extendBindings all write fresh columns — because the next exchange
// overwrites what it read. Only relations a consumer itself created for
// recvInto are recycled; w.Rels fragments belong to the run, and a consumer
// that fails simply drops its targets to the collector.

// poisonRecycled is a test hook: when set, every buffer is overwritten with
// recycledPoison on its way back to a worker, so a result that aliases a
// recycled buffer is a wrong answer at once instead of a wrong answer some
// exchanges later.
var poisonRecycled bool

const recycledPoison = relation.Value(-0x0ddba11)

// recycleColumns hands column buffers back to w. The caller holds the last
// reference to them.
func recycleColumns(w *cluster.Worker, cols [][]relation.Value) {
	for _, col := range cols {
		if poisonRecycled {
			col = col[:cap(col)]
			for i := range col {
				col[i] = recycledPoison
			}
		}
		w.PutValues(col)
	}
}

// recycle hands the columns of receive targets back to w and leaves the
// targets empty.
func recycle(w *cluster.Worker, targets ...*relation.Relation) {
	for _, t := range targets {
		recycleColumns(w, t.Columns())
		clear(t.Columns())
	}
}

// partWeight is the message weight of a partition chunk: the first chunk
// carries the envelope's single logical message, continuations ride free —
// so Messages counts are invariant to chunk granularity.
func partWeight(chunk int) int64 {
	if chunk > 0 {
		return cluster.WeightContinuation
	}
	return 0
}

// sendWhole streams rel (nil or empty: nothing) to each of dests under
// key, in bounded chunks, encoding each chunk once.
func sendWhole(w *cluster.Worker, s cluster.StreamSender, rel *relation.Relation, key string, dests ...int) error {
	if rel == nil || rel.Len() == 0 {
		return nil
	}
	return w.EncodeRelationChunks(rel, 0, func(payload []byte, lo, hi, chunk int) error {
		for _, to := range dests {
			err := s.Send(cluster.Envelope{
				To:      to,
				Key:     key,
				Chunk:   int32(chunk),
				Payload: payload,
				Tuples:  int64(hi - lo),
				Weight:  partWeight(chunk),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// everyWorker lists the destinations of a broadcast.
func everyWorker(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// sendParts hash-partitions frag (nil or empty: nothing) on cols and
// streams part i to worker i under key.
func sendParts(w *cluster.Worker, s cluster.StreamSender, frag *relation.Relation, cols []int, key string) error {
	if frag == nil || frag.Len() == 0 {
		return nil
	}
	n := frag.Len()
	ids := w.Int32s(n)
	back := make([][]relation.Value, frag.Arity())
	for j := range back {
		back[j] = w.Values(n)
	}
	parts := frag.PartitionInto(cols, w.N, ids, back)
	w.PutInt32s(ids)
	for to, p := range parts {
		if err := sendWhole(w, s, p, key, to); err != nil {
			return err
		}
	}
	recycleColumns(w, back)
	return nil
}

// recvTarget is the relation that chunks under one envelope key append to.
// It carries the schema the consumer expects. rows is how many rows this
// worker should expect under the key when the coordinator can tell (an even
// share of a hash-partitioned relation, all of a broadcast one), 0 when it
// cannot (the sender projects or de-duplicates first).
type recvTarget struct {
	key  string
	rel  *relation.Relation
	rows int64
}

// recvInto drains a worker's stream, decoding every chunk onto the tail of
// the target its key names. Columns live in buffers the worker lends: a
// target with an expectation reserves it, an eighth over, before the first
// chunk, and a column that fills up moves to one at least twice as large.
// Every request is rounded up to a power of two, so that whatever order the
// chunks arrive in the requests fall on the same few sizes and the next
// exchange's find this one's buffers. A chunk under a key no target has, or
// of any other shape than its target's, is a corrupt payload, not a panic
// further down; what names the exchange in that error.
func recvInto(w *cluster.Worker, r cluster.StreamReceiver, what string, targets ...recvTarget) error {
	lend := func(rows int) []relation.Value { return w.Values(1 << bits.Len(uint(rows-1))) }
	for _, t := range targets {
		if t.rows > 0 {
			cols := t.rel.Columns()
			for j := range cols {
				cols[j] = lend(int(t.rows + t.rows/8))[:0]
			}
		}
	}
	grow := func(col []relation.Value, need int) []relation.Value {
		grown := lend(max(need, 2*cap(col)))[:len(col)]
		copy(grown, col)
		recycleColumns(w, [][]relation.Value{col})
		return grown
	}
	for {
		e, ok, err := r.Recv()
		if err != nil || !ok {
			return err
		}
		i := slices.IndexFunc(targets, func(t recvTarget) bool { return t.key == e.Key })
		if i < 0 {
			return cluster.CorruptPayload(what, fmt.Errorf("no target for key %q", e.Key))
		}
		if err := relation.DecodeAppendGrow(e.Payload, targets[i].rel, grow); err != nil {
			return cluster.CorruptPayload(what, err)
		}
	}
}

func sharedAttrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

func attrIdx(attrs, want []string) []int {
	out := make([]int, len(want))
	for i, wa := range want {
		out[i] = -1
		for j, a := range attrs {
			if a == wa {
				out[i] = j
				break
			}
		}
	}
	return out
}

// joinedAttrs returns the output schema of A ⋈ B.
func joinedAttrs(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, x := range b {
		found := false
		for _, y := range a {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			out = append(out, x)
		}
	}
	return out
}
