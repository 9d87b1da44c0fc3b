package hcube

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"adj/internal/blockcache"
	"adj/internal/cluster"
	"adj/internal/relation"
	"adj/internal/trie"
)

// Kind selects the HCube implementation (§V).
type Kind int

// The three implementations compared in Fig. 9.
const (
	// Push is the original map/reduce-style HCube: every tuple is shuffled
	// individually to each matching cube (per-tuple message accounting; the
	// runtime batches the physical transfer to stay memory-sane, which only
	// helps Push).
	Push Kind = iota
	// Pull groups tuples into blocks by their hash signature; each block is
	// serialized once and fetched by the matching servers.
	Pull
	// Merge ships blocks as pre-built tries: a receiver gets one trie part
	// per sender that held tuples of its block and merges the parts
	// instead of re-sorting raw tuples.
	Merge
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case Merge:
		return "merge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Plan carries everything one shuffle needs.
type Plan struct {
	Shares Shares
	// Rels names the relations (already loaded as worker fragments) to
	// shuffle, with their attrs.
	Rels []RelInfo
	// Kind selects push/pull/merge.
	Kind Kind
	// TrieOrder gives the global attribute order block tries are built in
	// (each relation uses its attrs sorted by this order). Required: every
	// kind deposits received blocks into the worker's block-trie cache.
	TrieOrder []string
	// Reuse, when non-nil, connects the shuffle to a session-resident
	// block-trie store: relations whose content signature is listed and
	// whose complete block set survives in the store are not shuffled at
	// all — every worker adopts the published tries straight into its
	// registry (a "warm" relation). Relations without a surviving set run
	// the normal exchange and have their built tries published afterwards
	// via Publish.
	Reuse *Reuse
	// Warm is the set of relations this run serves from Reuse's store
	// instead of shuffling, as resolved by WarmRels: relation name → its
	// complete block-trie set. Run shuffles exactly the relations absent
	// from it, so those are the only ones whose fragments the workers must
	// hold; nil runs everything cold.
	Warm map[string]map[int]*trie.Trie
}

// Reuse names the session store and the content signatures of the shuffled
// relations (relation name -> signature; relations absent from Sigs are
// always shuffled cold and never published).
type Reuse struct {
	Store *blockcache.Store
	Sigs  map[string]uint64
}

// layoutSig hashes the structural context that, together with a relation's
// content signature, pins a block trie's identity: the per-column share
// counts (in the relation's own column order — exactly what BlockSig
// consumes) and the permutation of columns into the trie's attribute
// order. Attribute names are excluded so reuse crosses atom renamings and
// whole queries; the shuffle Kind is excluded because all kinds build the
// same sorted distinct block tries.
func (p Plan) layoutSig(ri RelInfo) uint64 {
	relPos := p.Shares.RelPositions(ri.Attrs)
	trieAttrs := trie.AttrsInOrder(ri.Attrs, p.TrieOrder)
	h := relation.NewHash64()
	h.Word(uint64(len(ri.Attrs)))
	for _, pos := range relPos {
		h.Word(uint64(p.Shares.P[pos]))
	}
	for _, a := range trieAttrs {
		for j, b := range ri.Attrs {
			if a == b {
				h.Word(uint64(j))
				break
			}
		}
	}
	return h.Sum()
}

// WarmRels returns, per relation name, the store's complete block-trie set
// for relations the session store can serve without a shuffle: the value
// for Plan.Warm. Relations missing a manifest (or any evicted block) are
// omitted and run cold.
func (p Plan) WarmRels() map[string]map[int]*trie.Trie {
	if p.Reuse == nil || p.Reuse.Store == nil {
		return nil
	}
	var warm map[string]map[int]*trie.Trie
	for _, ri := range p.Rels {
		content, ok := p.Reuse.Sigs[ri.Name]
		if !ok {
			continue
		}
		blocks, ok := p.Reuse.Store.Snapshot(blockcache.ManifestID{Content: content, Layout: p.layoutSig(ri)})
		if !ok {
			continue
		}
		if warm == nil {
			warm = make(map[string]map[int]*trie.Trie)
		}
		warm[ri.Name] = blocks
	}
	return warm
}

// adoptWarm installs one worker's block of every warm relation into its
// registry: the published trie of the worker's cube's signature is
// re-skinned with the current query's attribute names and deposited
// pre-built (requests count as cache hits, never builds) — the block a cold
// shuffle would have delivered. A relation with no tuples in that block has
// no stored trie, and the worker joins it as empty, as it would cold.
func adoptWarm(w *cluster.Worker, p Plan) {
	for _, ri := range p.Rels {
		blocks, ok := p.Warm[ri.Name]
		if !ok {
			continue
		}
		sig := p.Shares.cubeSig(p.Shares.RelPositions(ri.Attrs), w.ID)
		bt, ok := blocks[sig]
		if !ok {
			continue
		}
		attrs := trie.AttrsInOrder(ri.Attrs, p.TrieOrder)
		skinned := *bt
		skinned.Attrs = attrs
		w.Blocks.DepositBuilt(blockcache.Key{Rel: ri.Name, Sig: sig}, attrs, &skinned)
	}
}

// Publish deposits a completed run's built block tries into the session
// store, then records each fully-built relation's manifest — the complete
// signature set a later execution needs to go warm. Call it after the join
// phase (block tries are built lazily at a worker's first use, so they only
// exist once every worker has joined). Adopted (warm) blocks skip the store
// deposit — their tries are already resident — but still count toward
// their relation's manifest, which is re-recorded idempotently; a relation
// with any block still unbuilt skips its manifest write (and PutManifest
// itself refuses sets whose blocks didn't stay resident). Block deposits
// are idempotent across workers (replicated blocks are built to identical
// tries on every receiving server).
func Publish(c *cluster.Cluster, p Plan) {
	if p.Reuse == nil || p.Reuse.Store == nil {
		return
	}
	type relState struct {
		sigs     map[int]bool
		complete bool
	}
	states := make(map[string]*relState, len(p.Rels))
	layouts := make(map[string]uint64, len(p.Rels))
	for _, ri := range p.Rels {
		if _, ok := p.Reuse.Sigs[ri.Name]; !ok {
			continue
		}
		states[ri.Name] = &relState{sigs: make(map[int]bool), complete: true}
		layouts[ri.Name] = p.layoutSig(ri)
	}
	if len(states) == 0 {
		return
	}
	for _, w := range c.Workers {
		for _, bb := range w.Blocks.BuiltBlocks() {
			st, ok := states[bb.Key.Rel]
			if !ok {
				continue
			}
			st.sigs[bb.Key.Sig] = true
			if bb.Trie == nil {
				st.complete = false
				continue
			}
			if !bb.Adopted {
				p.Reuse.Store.Put(blockcache.BlockID{
					Content: p.Reuse.Sigs[bb.Key.Rel],
					Layout:  layouts[bb.Key.Rel],
					Sig:     bb.Key.Sig,
				}, bb.Trie)
			}
		}
	}
	for name, st := range states {
		if !st.complete {
			continue
		}
		sigs := make([]int, 0, len(st.sigs))
		for sig := range st.sigs {
			sigs = append(sigs, sig)
		}
		sort.Ints(sigs)
		p.Reuse.Store.PutManifest(blockcache.ManifestID{
			Content: p.Reuse.Sigs[name],
			Layout:  layouts[name],
		}, sigs)
	}
}

// Run executes the shuffle on the cluster: every worker owns the cube of
// its own index (the share vector must have one cube per worker, as
// Optimize's do), every block of a relation goes to the workers whose cubes
// match its signature, and afterwards each worker's block-trie registry
// (Worker.Blocks) holds one block per relation, ready for its trie to be
// built at first use. Envelope keys are "rel@sig" for all three kinds. The
// exchange is one record entry under the given phase name.
//
// Warm relations (p.Warm): the session store still holds the complete
// block-trie set for this content and layout, so they skip the exchange
// entirely — no encode, no wire, no shuffle-side trie build — and every
// worker adopts its block of the published tries during consume.
func Run(c *cluster.Cluster, phase string, p Plan) error {
	if len(p.TrieOrder) == 0 {
		return fmt.Errorf("hcube %s: TrieOrder required", p.Kind)
	}
	if p.Kind < Push || p.Kind > Merge {
		return fmt.Errorf("hcube: unknown kind %d", p.Kind)
	}
	if n := p.Shares.NumCubes(); n != c.N {
		return fmt.Errorf("hcube %s: %d cubes for %d workers (%v)", p.Kind, n, c.N, p.Shares)
	}
	for _, w := range c.Workers {
		w.ResetCubes()
	}
	return c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error { return p.send(w, s) },
		func(w *cluster.Worker, r cluster.StreamReceiver) error { return p.receive(w, r) })
}

// send ships every block of the worker's fragments of the cold relations
// to each worker whose cube matches the block's signature. Push and Pull
// stream a block as its sorted tuples in bounded chunks whose payloads are
// shared by all destinations; they differ only in the message weight the
// cost models measure: Push counts one message per tuple copy (each chunk
// carries the weight of its rows), Pull one per block copy (the first chunk
// carries it, continuations ride free as WeightContinuation), so both
// totals are chunking-invariant. Merge ships each block as one pre-built
// trie: a trie encoding is one indivisible unit, so a block copy is one
// chunk — receivers still overlap, depositing the first trie while later
// blocks are being built and encoded.
func (p Plan) send(w *cluster.Worker, s cluster.StreamSender) error {
	var enc []byte // Merge: one encode buffer for every block
	for _, ri := range p.Rels {
		if _, ok := p.Warm[ri.Name]; ok {
			continue
		}
		frag, ok := w.Rels[ri.Name]
		if !ok {
			continue
		}
		relPos := p.Shares.RelPositions(ri.Attrs)
		attrs := trie.AttrsInOrder(ri.Attrs, p.TrieOrder)
		sigs, blocks := groupBlocks(frag, p.Shares, relPos, ri)
		for bi, sig := range sigs {
			key := ri.Name + "@" + strconv.Itoa(sig)
			dests := p.Shares.BlockCubes(relPos, sig)
			if p.Kind == Merge {
				bt := trie.Build(blocks[bi], attrs)
				enc = trie.AppendEncode(enc[:0], bt)
				payload := w.PayloadCopy(enc)
				for _, to := range dests {
					if err := s.Send(cluster.Envelope{To: to, Key: key, Payload: payload, Tuples: int64(bt.Len()), Weight: 1}); err != nil {
						return err
					}
				}
				continue
			}
			b := blocks[bi]
			b.Sort()
			err := w.EncodeRelationChunks(b, 0, func(payload []byte, lo, hi, chunk int) error {
				weight := int64(hi - lo) // Push: one message per tuple copy
				if p.Kind == Pull {
					weight = 1 // one message per block copy
					if chunk > 0 {
						weight = cluster.WeightContinuation
					}
				}
				for _, to := range dests {
					if err := s.Send(cluster.Envelope{
						To:      to,
						Key:     key,
						Chunk:   int32(chunk),
						Payload: payload,
						Tuples:  int64(hi - lo),
						Weight:  weight,
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
	}
	return nil
}

// receive adopts the worker's warm blocks, then drains the stream into its
// registry. A Merge chunk is one sender's trie of the block and is
// deposited as it lands. A Push or Pull chunk is a run of the block's
// tuples: every chunk of a relation is appended onto one block relation
// with the plan's attributes (DecodeAppendGrow refuses a chunk of another
// arity or other attribute names), and the block is deposited once the
// stream ends, for each relation that received a chunk. The block
// outlives the exchange, so its columns are allocated, not borrowed from
// the worker's free lists. A key naming no cold relation of the plan, or a
// block of it that is not this worker's, is a corrupt payload: the worker
// would otherwise join a cube that is not its own.
func (p Plan) receive(w *cluster.Worker, r cluster.StreamReceiver) error {
	adoptWarm(w, p)
	type local struct {
		ri    RelInfo
		sig   int
		attrs []string
		block *relation.Relation // Push/Pull: the tuples received so far
	}
	mine := make(map[string]*local, len(p.Rels))
	for _, ri := range p.Rels {
		if _, ok := p.Warm[ri.Name]; !ok {
			mine[ri.Name] = &local{ri: ri, sig: p.Shares.cubeSig(p.Shares.RelPositions(ri.Attrs), w.ID), attrs: trie.AttrsInOrder(ri.Attrs, p.TrieOrder)}
		}
	}
	what := "hcube " + p.Kind.String()
	for {
		e, ok, err := r.Recv()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		name, sig, err := splitKey(e.Key)
		if err != nil {
			return cluster.CorruptPayload(what, err)
		}
		l, ok := mine[name]
		if !ok {
			return cluster.CorruptPayload(what, fmt.Errorf("key %q: no shuffled relation %q", e.Key, name))
		}
		if sig != l.sig {
			return cluster.CorruptPayload(what, fmt.Errorf("key %q: worker %d holds block %d of %s", e.Key, w.ID, l.sig, name))
		}
		if p.Kind == Merge {
			bt, err := trie.Decode(e.Payload)
			if err != nil {
				return cluster.CorruptPayload(what+" trie", err)
			}
			w.Blocks.DepositTrie(blockcache.Key{Rel: name, Sig: sig}, l.attrs, bt)
			continue
		}
		if l.block == nil {
			l.block = relation.New(name, l.ri.Attrs...)
		}
		if err := relation.DecodeAppendGrow(e.Payload, l.block, nil); err != nil {
			return cluster.CorruptPayload(what+" block", err)
		}
	}
	for _, ri := range p.Rels {
		if l := mine[ri.Name]; l != nil && l.block != nil {
			w.Blocks.DepositTuples(blockcache.Key{Rel: ri.Name, Sig: l.sig}, l.attrs, l.block)
		}
	}
	return nil
}

// groupBlocks buckets a fragment's tuples by block signature into one
// contiguous backing per attribute (a signature pass, then
// relation.ScatterGroups — the grouping scatter PartitionBy also runs). It
// returns ascending signatures and, aligned with them, the non-empty
// blocks; block relations alias the shared backing column-wise, each
// capped at its own rows, and may be sorted in place by the caller.
func groupBlocks(frag *relation.Relation, s Shares, relPos []int, ri RelInfo) ([]int, []*relation.Relation) {
	n := frag.Len()
	nb := s.NumBlocks(relPos)
	sigOf := make([]int32, n)
	fragCols := frag.Columns()
	// Mixed-radix signature accumulated one column at a time: the exact
	// sum BlockSig computes per row, reordered into sequential scans.
	stride := 1
	for j, p := range relPos {
		pv := s.P[p]
		for i, v := range fragCols[j] {
			sigOf[i] += int32(relation.HashValue(v, pv) * stride)
		}
		stride *= pv
	}
	back := make([][]relation.Value, len(fragCols))
	for j := range back {
		back[j] = make([]relation.Value, n)
	}
	off := relation.ScatterGroups(fragCols, sigOf, nb, back)
	var sigs []int
	var blocks []*relation.Relation
	for sig := 0; sig < nb; sig++ {
		lo, hi := int(off[sig]), int(off[sig+1])
		if lo == hi {
			continue
		}
		sigs = append(sigs, sig)
		blocks = append(blocks, relation.FromColumns(ri.Name, ri.Attrs, relation.RowRange(back, lo, hi)))
	}
	return sigs, blocks
}

// splitKey parses an envelope key "rel@sig".
func splitKey(key string) (string, int, error) {
	i := strings.LastIndexByte(key, '@')
	if i < 0 {
		return "", 0, fmt.Errorf("bad envelope key %q", key)
	}
	sig, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("bad envelope key %q: %w", key, err)
	}
	return key[:i], sig, nil
}
