package hcube

import (
	"fmt"
	"sort"
	"strconv"

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
	// Merge ships blocks as pre-built tries; receivers merge tries instead
	// of re-sorting raw tuples.
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
	trieAttrs := p.trieAttrs(ri)
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

// adoptWarm installs one worker's share of the warm relations' block tries
// into its registry: for every stored block whose signature maps a cube to
// this worker, the published trie is re-skinned with the current query's
// attribute names and deposited pre-built (requests count as cache hits,
// never builds), and the matching cubes are bound — exactly the bindings a
// cold shuffle's consume phase would have produced.
func adoptWarm(w *cluster.Worker, p Plan) {
	for _, ri := range p.Rels {
		blocks, ok := p.Warm[ri.Name]
		if !ok {
			continue
		}
		relPos := p.Shares.RelPositions(ri.Attrs)
		attrs := p.trieAttrs(ri)
		sigs := make([]int, 0, len(blocks))
		for sig := range blocks {
			sigs = append(sigs, sig)
		}
		sort.Ints(sigs)
		for _, sig := range sigs {
			var local []int
			for _, cube := range p.Shares.BlockCubes(relPos, sig) {
				if ServerOfCube(cube, w.N) == w.ID {
					local = append(local, cube)
				}
			}
			if len(local) == 0 {
				continue
			}
			skinned := *blocks[sig]
			skinned.Attrs = attrs
			key := blockcache.Key{Rel: ri.Name, Sig: sig}
			w.Blocks.DepositBuilt(key, attrs, &skinned)
			for _, cube := range local {
				w.Blocks.BindCube(cube, ri.Name, key)
			}
		}
	}
}

// Publish deposits a completed run's built block tries into the session
// store, then records each fully-built relation's manifest — the complete
// signature set a later execution needs to go warm. Call it after the join
// phase (block tries are built lazily at first cube use, so they only
// exist once every cube has run). Adopted (warm) blocks skip the store
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

// Run executes the shuffle on the cluster: afterwards every worker's
// block-trie registry (Worker.Blocks) holds the deposited blocks of its
// assigned cubes, ready for lazy per-cube trie assembly. Phase metrics
// accrue under the given phase name.
func Run(c *cluster.Cluster, phase string, p Plan) error {
	if len(p.TrieOrder) == 0 {
		return fmt.Errorf("hcube %s: TrieOrder required", p.Kind)
	}
	for _, w := range c.Workers {
		w.ResetCubes()
	}
	// Warm relations (p.Warm): the session store still holds the complete
	// block-trie set for this content and layout, so they skip the exchange
	// entirely — no encode, no wire, no shuffle-side trie build — and every
	// worker adopts its share of the published tries during consume.
	switch p.Kind {
	case Push:
		return runPush(c, phase, p)
	case Pull:
		return runPull(c, phase, p)
	case Merge:
		return runMerge(c, phase, p)
	default:
		return fmt.Errorf("hcube: unknown kind %d", p.Kind)
	}
}

// trieAttrs returns ri's attributes sorted by TrieOrder position.
func (p Plan) trieAttrs(ri RelInfo) []string {
	pos := make(map[string]int, len(p.TrieOrder))
	for i, a := range p.TrieOrder {
		pos[a] = i
	}
	attrs := append([]string(nil), ri.Attrs...)
	sort.Slice(attrs, func(x, y int) bool { return pos[attrs[x]] < pos[attrs[y]] })
	return attrs
}

// attrsByRel precomputes trieAttrs for every plan relation.
func (p Plan) attrsByRel() map[string][]string {
	out := make(map[string][]string, len(p.Rels))
	for _, ri := range p.Rels {
		out[ri.Name] = p.trieAttrs(ri)
	}
	return out
}

// runPush replicates tuples to every matching cube. Tuples are bucketed
// into sorted blocks by hash signature; each block streams out in bounded
// chunks whose payloads are shared by all destination cubes, but Weight
// still counts one message per tuple copy (the Push cost model the paper
// measures — each chunk carries the weight of its rows, so the per-tuple
// total is chunking-invariant). Envelope keys carry both the block
// signature and the destination cube ("rel@sig#cube") so the receiver can
// deposit each sender's chunk once into the block cache while still
// binding every replicated cube.
func runPush(c *cluster.Cluster, phase string, p Plan) error {
	return c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			for _, ri := range p.Rels {
				if _, ok := p.Warm[ri.Name]; ok {
					continue
				}
				frag, ok := w.Rels[ri.Name]
				if !ok {
					continue
				}
				relPos := p.Shares.RelPositions(ri.Attrs)
				sigs, blocks := groupBlocks(frag, p.Shares, relPos, ri)
				for bi, sig := range sigs {
					b := blocks[bi]
					b.Sort()
					cubes := p.Shares.BlockCubes(relPos, sig)
					err := w.EncodeRelationChunks(b, 0, func(payload []byte, lo, hi, chunk int) error {
						for _, cube := range cubes {
							if err := s.Send(cluster.Envelope{
								To:      ServerOfCube(cube, c.N),
								Key:     ri.Name + "@" + strconv.Itoa(sig) + "#" + strconv.Itoa(cube),
								Chunk:   int32(chunk),
								Payload: payload,
								Tuples:  int64(hi - lo),
								Weight:  int64(hi - lo), // per-tuple shuffle messages
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
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			adoptWarm(w, p)
			return consumeTupleBlocks(w, r, p)
		})
}

// runPull groups by block signature and ships each block once per server,
// streamed as bounded chunks: the first chunk of a block copy carries the
// block's single message weight, continuations ride free
// (WeightContinuation), so the per-block message count the Pull cost model
// measures is chunking-invariant. Receivers deposit each chunk as one more
// tuple part of its block — the lazy trie build concatenates, sorts and
// dedups parts, so chunk granularity never changes the built trie.
func runPull(c *cluster.Cluster, phase string, p Plan) error {
	return c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			for _, ri := range p.Rels {
				if _, ok := p.Warm[ri.Name]; ok {
					continue
				}
				frag, ok := w.Rels[ri.Name]
				if !ok {
					continue
				}
				relPos := p.Shares.RelPositions(ri.Attrs)
				sigs, blocks := groupBlocks(frag, p.Shares, relPos, ri)
				for bi, sig := range sigs {
					b := blocks[bi]
					b.Sort()
					servers := blockServers(p.Shares, relPos, sig, c.N)
					err := w.EncodeRelationChunks(b, 0, func(payload []byte, lo, hi, chunk int) error {
						weight := int64(1) // one message per block copy
						if chunk > 0 {
							weight = cluster.WeightContinuation
						}
						for _, server := range servers {
							if err := s.Send(cluster.Envelope{
								To:      server,
								Key:     ri.Name + "@" + strconv.Itoa(sig),
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
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			adoptWarm(w, p)
			attrsOf := p.attrsByRel()
			for {
				e, ok, err := r.Recv()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				name, sig, err := splitKey(e.Key, '@')
				if err != nil {
					return err
				}
				ri, ok := relByName(p.Rels, name)
				if !ok {
					return fmt.Errorf("hcube pull: unknown relation %q", name)
				}
				// Deposit the sender's chunk as one tuple part; bind every
				// local cube matching the signature (rebinds are no-ops). The
				// part relation is freshly decoded because the registry
				// retains it until the block trie is built — received
				// payloads are only valid until the next Recv.
				key := blockcache.Key{Rel: name, Sig: sig}
				part := new(relation.Relation)
				if err := relation.DecodeInto(e.Payload, part); err != nil {
					return cluster.CorruptPayload("hcube pull block", err)
				}
				w.Blocks.DepositTuples(key, attrsOf[name], part)
				for _, cube := range p.Shares.BlockCubes(p.Shares.RelPositions(ri.Attrs), sig) {
					if ServerOfCube(cube, w.N) == w.ID {
						w.Blocks.BindCube(cube, name, key)
					}
				}
			}
		})
}

// runMerge ships pre-built block tries; receivers deposit them into the
// block-trie cache instead of eagerly merging per destination cube — the
// merge happens lazily at a cube's first use, and a block shared by many
// cubes is decoded and (when it is a relation's only block on the cube)
// merged exactly once.
func runMerge(c *cluster.Cluster, phase string, p Plan) error {
	return c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			for _, ri := range p.Rels {
				if _, ok := p.Warm[ri.Name]; ok {
					continue
				}
				frag, ok := w.Rels[ri.Name]
				if !ok {
					continue
				}
				relPos := p.Shares.RelPositions(ri.Attrs)
				attrs := p.trieAttrs(ri)
				sigs, blocks := groupBlocks(frag, p.Shares, relPos, ri)
				for bi, sig := range sigs {
					// A trie encoding is one indivisible unit (receivers merge
					// whole tries), so each block copy streams as one chunk —
					// receivers still overlap: the first trie deposits while
					// later blocks are still being built and encoded.
					bt := trie.Build(blocks[bi], attrs)
					payload := w.PayloadCopy(trie.Encode(bt))
					for _, server := range blockServers(p.Shares, relPos, sig, c.N) {
						if err := s.Send(cluster.Envelope{
							To:      server,
							Key:     ri.Name + "@" + strconv.Itoa(sig),
							Payload: payload,
							Tuples:  int64(bt.Len()),
							Weight:  1,
						}); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			adoptWarm(w, p)
			attrsOf := p.attrsByRel()
			for {
				e, ok, err := r.Recv()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				name, sig, err := splitKey(e.Key, '@')
				if err != nil {
					return err
				}
				bt, err := trie.Decode(e.Payload)
				if err != nil {
					return cluster.CorruptPayload("hcube merge trie", err)
				}
				ri, ok := relByName(p.Rels, name)
				if !ok {
					return fmt.Errorf("hcube merge: unknown relation %q", name)
				}
				relPos := p.Shares.RelPositions(ri.Attrs)
				key := blockcache.Key{Rel: name, Sig: sig}
				w.Blocks.DepositTrie(key, attrsOf[name], bt)
				for _, cube := range p.Shares.BlockCubes(relPos, sig) {
					if ServerOfCube(cube, w.N) == w.ID {
						w.Blocks.BindCube(cube, name, key)
					}
				}
			}
		})
}

// --- helpers ---

// consumeTupleBlocks drains Push envelopes ("rel@sig#cube") from the
// stream. Each sender's chunk is decoded and deposited once — replicated
// cube copies carry the same chunk ordinal, so the dedup key is (sender,
// block, chunk) — and every replicated cube binds the shared block key.
func consumeTupleBlocks(w *cluster.Worker, r cluster.StreamReceiver, p Plan) error {
	type seenKey struct {
		from  int
		chunk int32
		key   blockcache.Key
	}
	seen := make(map[seenKey]bool)
	attrsOf := p.attrsByRel()
	for {
		e, ok, err := r.Recv()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		relSig, cube, err := splitKey(e.Key, '#')
		if err != nil {
			return err
		}
		name, sig, err := splitKey(relSig, '@')
		if err != nil {
			return err
		}
		attrs, ok := attrsOf[name]
		if !ok {
			return fmt.Errorf("hcube push: unknown relation %q", name)
		}
		key := blockcache.Key{Rel: name, Sig: sig}
		sk := seenKey{e.From, e.Chunk, key}
		if !seen[sk] {
			seen[sk] = true
			part := new(relation.Relation)
			if err := relation.DecodeInto(e.Payload, part); err != nil {
				return cluster.CorruptPayload("hcube push block", err)
			}
			w.Blocks.DepositTuples(key, attrs, part)
		}
		w.Blocks.BindCube(cube, name, key)
	}
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

// blockServers returns the distinct servers hosting cubes matching sig.
func blockServers(s Shares, relPos []int, sig, n int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, cube := range s.BlockCubes(relPos, sig) {
		sv := ServerOfCube(cube, n)
		if !seen[sv] {
			seen[sv] = true
			out = append(out, sv)
		}
	}
	sort.Ints(out)
	return out
}

func relByName(rels []RelInfo, name string) (RelInfo, bool) {
	for _, r := range rels {
		if r.Name == name {
			return r, true
		}
	}
	return RelInfo{}, false
}

func splitKey(key string, sep byte) (string, int, error) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == sep {
			v, err := strconv.Atoi(key[i+1:])
			if err != nil {
				return "", 0, fmt.Errorf("hcube: bad envelope key %q: %w", key, err)
			}
			return key[:i], v, nil
		}
	}
	return "", 0, fmt.Errorf("hcube: bad envelope key %q", key)
}
