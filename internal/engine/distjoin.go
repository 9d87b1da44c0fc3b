package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"adj/internal/cluster"
	"adj/internal/plan"
	"adj/internal/relation"
)

// distributedJoin computes A ⋈ B over worker fragments: both sides are
// hash-partitioned on their shared attributes, each worker joins its
// partitions locally, and the result fragments are stored as outName. This
// is the kernel of the SparkSQL-style BinaryJoin baseline and of ADJ's bag
// pre-computation. Returns the global result size; a worker's join or the
// result passing the budget is ErrBudget.
//
// With no shared attributes the smaller side is broadcast and the larger
// kept (a cross product; rare, but required for generality).
func distributedJoin(c *cluster.Cluster, phase string, a, b plan.Sig, outName string, budget int64) (int64, error) {
	shared := sharedAttrs(a.Attrs, b.Attrs)
	ins := []exchangeInput{
		{name: a.Name, attrs: a.Attrs, cols: attrIdx(a.Attrs, shared)},
		{name: b.Name, attrs: b.Attrs, cols: attrIdx(b.Attrs, shared)},
	}
	if len(shared) == 0 {
		small, big := 1, 0
		if globalSize(c, a.Name) < globalSize(c, b.Name) {
			small, big = 0, 1
		}
		ins[small].route, ins[big].route = broadcast, keep
	}
	size, err := coExchange(c, phase, outName, ins, func(in []*relation.Relation) (*relation.Relation, error) {
		res, err := relation.HashJoinLimit(in[0], in[1], int(budget))
		if err != nil {
			return nil, ErrBudget
		}
		return res, nil
	})
	if err == nil && budget > 0 && size > budget {
		err = ErrBudget
	}
	return size, err
}

// distributedSemijoin computes A ⋉ B over worker fragments: A is
// hash-partitioned on the shared attributes, B's projection onto them
// (deduplicated per fragment to cut volume) is partitioned the same way,
// and each worker keeps the A tuples with a match. The result fragments
// are stored as outName. This is the hybrid plan's pre-reduction: a
// selective acyclic fragment shrinks a cyclic-core relation before the
// core is shuffled.
func distributedSemijoin(c *cluster.Cluster, phase string, a, b plan.Sig, outName string) (int64, error) {
	shared := sharedAttrs(a.Attrs, b.Attrs)
	if len(shared) == 0 {
		return 0, fmt.Errorf("distributedSemijoin: %s and %s share no attributes", a.Name, b.Name)
	}
	return coExchange(c, phase, outName, []exchangeInput{
		{name: a.Name, attrs: a.Attrs, cols: attrIdx(a.Attrs, shared)},
		{name: b.Name, attrs: shared, cols: attrIdx(shared, shared), derive: func(r *relation.Relation) *relation.Relation {
			return r.ProjectMulti(shared...).SortDedup()
		}},
	}, func(in []*relation.Relation) (*relation.Relation, error) {
		return in[0].Semijoin(in[1], shared), nil
	})
}

// globalSize is the number of tuples of relation name over all workers.
func globalSize(c *cluster.Cluster, name string) int64 {
	return c.GatherCounts(func(w *cluster.Worker) int64 { return int64(w.LocalSize(name)) })
}

// route says how one input of a co-partitioned exchange reaches the worker
// whose kernel reads it.
type route uint8

const (
	// partition hash-partitions every fragment on the input's key columns
	// and sends part i to worker i.
	partition route = iota
	// broadcast sends every fragment whole to every worker.
	broadcast
	// keep sends nothing: the kernel reads the worker's own fragment.
	keep
)

// exchangeInput is one input of a coExchange: the worker fragments stored
// under name, of schema attrs, and their route.
type exchangeInput struct {
	name  string
	attrs []string
	route route
	// cols are a partitioned input's key columns.
	cols []int
	// derive, when set, is what a worker sends instead of its fragment: a
	// de-duplicated projection, whose size the coordinator cannot tell.
	derive func(*relation.Relation) *relation.Relation
}

// coExchange runs one exchange over ins and stores kernel's result on every
// worker as out, returning out's global size. Each worker sends its
// fragment of every input by the input's route, in input order, under the
// input's index as the envelope key; the kernel then reads one relation per
// input, in input order: a kept input's own fragment, any other the
// worker's receive target. A target expects an even share of a partitioned
// input and all of a broadcast one, nothing of a derived one.
//
// Partition backings and receive targets live in buffers the worker lends
// and takes back (README.md, "The data path of a multi-round exchange"),
// which is a contract on every kernel: its output may never alias its input
// — HashJoin, Semijoin (keepIndexed → gather) and extendBindings all write
// fresh columns — because the next exchange overwrites what it read. Only
// receive targets are recycled; a kept input is the worker's own fragment,
// which belongs to the run, and a consumer that fails drops its targets to
// the collector.
func coExchange(c *cluster.Cluster, phase, out string, ins []exchangeInput,
	kernel func(in []*relation.Relation) (*relation.Relation, error)) (int64, error) {

	expect := make([]int64, len(ins))
	for i, in := range ins {
		if in.route != keep && in.derive == nil {
			expect[i] = globalSize(c, in.name)
			if in.route == partition {
				expect[i] /= int64(c.N)
			}
		}
	}
	err := c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			for i, in := range ins {
				frag := w.Rels[in.name]
				if frag != nil && in.derive != nil {
					frag = in.derive(frag)
				}
				var err error
				switch key := strconv.Itoa(i); in.route {
				case partition:
					err = sendParts(w, s, frag, in.cols, key)
				case broadcast:
					err = sendWhole(w, s, frag, key, everyWorker(w.N)...)
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			rels := make([]*relation.Relation, len(ins))
			targets := make([]*relation.Relation, len(ins))
			for i, in := range ins {
				rels[i] = relation.New(in.name, in.attrs...)
				if in.route != keep {
					targets[i] = rels[i]
				} else if frag, ok := w.Rels[in.name]; ok {
					rels[i] = frag
				}
			}
			if err := recvInto(w, r, phase, targets, expect); err != nil {
				return err
			}
			res, err := kernel(rels)
			if err != nil {
				return err
			}
			recycle(w, targets)
			res.Name = out
			w.Rels[out] = res
			return nil
		})
	if err != nil {
		return 0, err
	}
	return globalSize(c, out), nil
}

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

// recycle hands the columns of receive targets (nil: none) back to w and
// leaves the targets empty.
func recycle(w *cluster.Worker, targets []*relation.Relation) {
	for _, t := range targets {
		if t != nil {
			recycleColumns(w, t.Columns())
			clear(t.Columns())
		}
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

// recvInto drains a worker's stream, decoding every chunk onto the tail of
// targets[k], k the chunk's key (a nil target receives nothing). Columns
// live in buffers the worker lends: a target with an expectation reserves
// it, an eighth over, before the first chunk, and a column that fills up
// moves to one at least twice as large. Every request is rounded up to a
// power of two, so that whatever order the chunks arrive in the requests
// fall on the same few sizes and the next exchange's find this one's
// buffers. A chunk under a key no target has, or of any other shape than
// its target's, is a corrupt payload, not a panic further down; what names
// the exchange in that error.
func recvInto(w *cluster.Worker, r cluster.StreamReceiver, what string, targets []*relation.Relation, expect []int64) error {
	lend := func(rows int) []relation.Value { return w.Values(1 << bits.Len(uint(rows-1))) }
	for i, t := range targets {
		if t != nil && expect[i] > 0 {
			cols := t.Columns()
			for j := range cols {
				cols[j] = lend(int(expect[i] + expect[i]/8))[:0]
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
		k, err := strconv.Atoi(e.Key)
		if err != nil || k < 0 || k >= len(targets) || targets[k] == nil {
			return cluster.CorruptPayload(what, fmt.Errorf("no target for key %q", e.Key))
		}
		if err := relation.DecodeAppendGrow(e.Payload, targets[k], grow); err != nil {
			return cluster.CorruptPayload(what, err)
		}
	}
}

// sharedAttrs returns a's attributes that b also has, in a's order.
func sharedAttrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		if slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// attrIdx returns the column of each wanted attribute in attrs (-1: none).
func attrIdx(attrs, want []string) []int {
	out := make([]int, len(want))
	for i, wa := range want {
		out[i] = slices.Index(attrs, wa)
	}
	return out
}

// joinedAttrs returns the output schema of A ⋈ B.
func joinedAttrs(a, b []string) []string {
	out := slices.Clone(a)
	for _, x := range b {
		if !slices.Contains(a, x) {
			out = append(out, x)
		}
	}
	return out
}
