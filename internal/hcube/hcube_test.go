package hcube

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"adj/internal/cluster"
	"adj/internal/hypergraph"
	"adj/internal/leapfrog"
	"adj/internal/relation"
	"adj/internal/testutil"
	"adj/internal/trie"
)

func TestSharesBasics(t *testing.T) {
	s := Shares{Attrs: []string{"a", "b", "c", "d", "e"}, P: []int{1, 2, 2, 1, 1}}
	if s.NumCubes() != 4 {
		t.Fatalf("cubes=%d", s.NumCubes())
	}
	// R3(c,d): dup = p_a * p_b * p_e = 2.
	if d := s.Dup([]string{"c", "d"}); d != 2 {
		t.Fatalf("dup=%d want 2", d)
	}
	if f := s.Frac([]string{"c", "d"}); f != 0.5 {
		t.Fatalf("frac=%v want 0.5", f)
	}
	if f := s.Frac([]string{"b", "c"}); f != 0.25 {
		t.Fatalf("frac=%v want 0.25", f)
	}
}

func TestCoordsRoundtrip(t *testing.T) {
	s := Shares{Attrs: []string{"a", "b", "c"}, P: []int{2, 3, 2}}
	strides := s.Strides()
	if !reflect.DeepEqual(strides, []int{1, 2, 6}) {
		t.Fatalf("strides=%v", strides)
	}
	for cube := 0; cube < s.NumCubes(); cube++ {
		coords := s.CoordsOf(cube)
		idx := 0
		for i, c := range coords {
			idx += c * strides[i]
		}
		if idx != cube {
			t.Fatalf("roundtrip %d -> %v -> %d", cube, coords, idx)
		}
	}
}

// Every tuple must reach exactly dup(R) cubes, and those cubes' coordinates
// must match the tuple's hashes on the relation's attributes.
func TestDestCubesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attrs := []string{"a", "b", "c", "d"}
		p := []int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
		s := Shares{Attrs: attrs, P: p}
		relAttrs := []string{"b", "d"}
		relPos := s.RelPositions(relAttrs)
		tuple := []relation.Value{rng.Int63n(100), rng.Int63n(100)}
		cubes := s.DestCubes(relPos, tuple)
		if int64(len(cubes)) != s.Dup(relAttrs) {
			return false
		}
		for _, cube := range cubes {
			coords := s.CoordsOf(cube)
			if coords[1] != relation.HashValue(tuple[0], p[1]) {
				return false
			}
			if coords[3] != relation.HashValue(tuple[1], p[3]) {
				return false
			}
		}
		// No duplicates.
		seen := map[int]bool{}
		for _, c := range cubes {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSigConsistentWithDestCubes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := Shares{Attrs: []string{"a", "b", "c"}, P: []int{2, 2, 2}}
	relPos := s.RelPositions([]string{"a", "c"})
	for i := 0; i < 100; i++ {
		tu := []relation.Value{rng.Int63n(50), rng.Int63n(50)}
		sig := s.BlockSig(relPos, tu)
		if sig < 0 || sig >= s.NumBlocks(relPos) {
			t.Fatalf("sig %d out of range", sig)
		}
		a := s.DestCubes(relPos, tu)
		b := s.BlockCubes(relPos, sig)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("DestCubes=%v BlockCubes=%v", a, b)
		}
	}
}

func TestOptimizeUsesAllServers(t *testing.T) {
	q := hypergraph.Q1()
	rels := []RelInfo{
		{Name: "R1", Attrs: []string{"a", "b"}, Size: 1000},
		{Name: "R2", Attrs: []string{"b", "c"}, Size: 1000},
		{Name: "R3", Attrs: []string{"a", "c"}, Size: 1000},
	}
	s, err := Optimize(rels, Config{Attrs: q.Attrs(), NumServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Triangle with equal sizes: balanced shares (2,2,2) minimize comm
	// (each relation duplicated by the share of its missing attribute).
	if !reflect.DeepEqual(s.P, []int{2, 2, 2}) {
		t.Fatalf("p=%v want [2 2 2]", s.P)
	}
	// The contract that makes a worker its cube and gives it one block per
	// relation: on every catalog query, cluster size and input sizes, with
	// and without a memory bound (feasible or not), there are exactly N
	// cubes, every cube matches exactly one block signature of every
	// relation, and cubeSig names that signature.
	rng := rand.New(rand.NewSource(5))
	for _, q := range hypergraph.AllQueries() {
		for n := 1; n <= 28; n++ {
			for trial := 0; trial < 3; trial++ {
				rels := make([]RelInfo, len(q.Atoms))
				var total int64
				for i, a := range q.Atoms {
					rels[i] = RelInfo{Name: a.Name, Attrs: a.Attrs, Size: 1 + rng.Int63n(1_000_000)}
					total += rels[i].Size
				}
				for _, mem := range []int64{0, 1 + rng.Int63n(total)} {
					s, err := Optimize(rels, Config{Attrs: q.Attrs(), NumServers: n, MemoryPerServer: mem})
					if err != nil {
						t.Fatal(err)
					}
					if s.NumCubes() != n {
						t.Fatalf("%s n=%d mem=%d: p=%v has %d cubes, want %d", q.Name, n, mem, s.P, s.NumCubes(), n)
					}
					for _, ri := range rels {
						relPos := s.RelPositions(ri.Attrs)
						sigOf := make([]int, n)
						for cube := range sigOf {
							sigOf[cube] = -1
						}
						for sig := 0; sig < s.NumBlocks(relPos); sig++ {
							for _, cube := range s.BlockCubes(relPos, sig) {
								if sigOf[cube] >= 0 {
									t.Fatalf("%s n=%d p=%v: cube %d matches blocks %d and %d of %s", q.Name, n, s.P, cube, sigOf[cube], sig, ri.Name)
								}
								sigOf[cube] = sig
							}
						}
						for cube, sig := range sigOf {
							if got := s.cubeSig(relPos, cube); got != sig {
								t.Fatalf("%s n=%d p=%v: cube %d matches block %d of %s, cubeSig says %d", q.Name, n, s.P, cube, sig, ri.Name, got)
							}
						}
					}
				}
			}
		}
	}
}

// Share vectors that tie on communication and on load go to the attributes
// the join visits first: cfg.Attrs is the traversal order, and a cube that
// owns a slice of the leading attributes walks only its part of the search
// tree. The tie costs nothing — same tuples shuffled, same load.
func TestSharesTieGoesToLeadingAttrs(t *testing.T) {
	order := []string{"b", "c", "a"}
	rels := []RelInfo{
		{Name: "R1", Attrs: []string{"a", "b"}, Size: 1000},
		{Name: "R2", Attrs: []string{"b", "c"}, Size: 1000},
		{Name: "R3", Attrs: []string{"a", "c"}, Size: 1000},
	}
	s, err := Optimize(rels, Config{Attrs: order, NumServers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.P, []int{2, 2, 1}) {
		t.Fatalf("p=%v over %v, want [2 2 1]: the tie goes to the attributes visited first", s.P, order)
	}
	for _, p := range [][]int{{1, 2, 2}, {2, 1, 2}} {
		tied := Shares{Attrs: order, P: p}
		if TotalComm(rels, tied) != TotalComm(rels, s) || LoadPerCube(rels, tied) != LoadPerCube(rels, s) {
			t.Fatalf("p=%v is not a tie with %v: comm %d vs %d, load %v vs %v", p, s.P,
				TotalComm(rels, tied), TotalComm(rels, s), LoadPerCube(rels, tied), LoadPerCube(rels, s))
		}
	}
}

func TestOptimizeSkewedSizes(t *testing.T) {
	// One giant relation: its missing attribute should get share 1 so the
	// giant is never replicated.
	attrs := []string{"a", "b", "c"}
	rels := []RelInfo{
		{Name: "BIG", Attrs: []string{"a", "b"}, Size: 1_000_000},
		{Name: "S1", Attrs: []string{"b", "c"}, Size: 10},
		{Name: "S2", Attrs: []string{"a", "c"}, Size: 10},
	}
	s, err := Optimize(rels, Config{Attrs: attrs, NumServers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.P[2] != 1 {
		t.Fatalf("p=%v: share of c should be 1 to avoid replicating BIG", s.P)
	}
	if s.P[0]*s.P[1] != 4 {
		t.Fatalf("p=%v: a,b shares should multiply to 4", s.P)
	}
}

func TestOptimizeMemoryConstraint(t *testing.T) {
	attrs := []string{"a", "b"}
	rels := []RelInfo{{Name: "R", Attrs: []string{"a", "b"}, Size: 1000}}
	// With 4 servers and memory for only 300 tuples each, p=(2,2) is needed
	// (frac 1/4 → 250 ≤ 300); p=(4,1) also works. Either way load must fit.
	s, err := Optimize(rels, Config{Attrs: attrs, NumServers: 4, MemoryPerServer: 300})
	if err != nil {
		t.Fatal(err)
	}
	if load := LoadPerCube(rels, s); load > 300 {
		t.Fatalf("p=%v load=%v exceeds memory", s.P, load)
	}
}

func TestOptimizeInfeasibleMemoryFallsBack(t *testing.T) {
	attrs := []string{"a"}
	rels := []RelInfo{{Name: "R", Attrs: []string{"a"}, Size: 1000}}
	s, err := Optimize(rels, Config{Attrs: attrs, NumServers: 2, MemoryPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Falls back to min-load vector (max split).
	if s.P[0] != 2 {
		t.Fatalf("p=%v want max split", s.P)
	}
}

// The big HCube correctness property: for a random query/database and
// random share vector, running Leapfrog per cube over shuffled data and
// summing per-cube results (restricted to outputs whose full-tuple cube is
// the local cube) equals the sequential join. Each output is produced by
// exactly one cube, so plain summation must match.
func TestShuffleJoinEqualsSequential(t *testing.T) {
	for _, kind := range []Kind{Push, Pull, Merge} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				q, rels := testutil.RandQueryInstance(rng, 3, 4, 30, 6)
				order := q.Attrs()
				n := 1 + rng.Intn(5)
				c := cluster.New(cluster.Config{N: n})
				defer c.Close()
				c.LoadDatabase(rels)
				info := InfoOf(rels)
				shares, err := Optimize(info, Config{Attrs: order, NumServers: n})
				if err != nil {
					t.Logf("optimize: %v", err)
					return false
				}
				plan := Plan{Shares: shares, Rels: info, Kind: kind, TrieOrder: order}
				if err := Run(c, "shuffle", plan); err != nil {
					t.Logf("shuffle: %v", err)
					return false
				}
				var total int64
				for _, w := range c.Workers {
					st, err := leapfrog.Join(workerTries(w, info, order), order, leapfrog.Options{})
					if err != nil {
						t.Logf("join: %v", err)
						return false
					}
					total += st.Results
				}
				want := relation.NaiveJoin(rels, order).Len()
				if int(total) != want {
					t.Logf("seed=%d n=%d kind=%v: got %d want %d (shares %v)", seed, n, kind, total, want, shares)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// workerTries assembles the tries of a worker's cube from its block-trie
// cache. Relations with no tuples in the cube are empty.
func workerTries(w *cluster.Worker, info []RelInfo, order []string) []*trie.Trie {
	p := Plan{TrieOrder: order}
	var out []*trie.Trie
	for _, ri := range info {
		tr := w.Blocks.Trie(ri.Name)
		if tr == nil {
			tr = trie.Build(relation.New(ri.Name, ri.Attrs...), trie.AttrsInOrder(ri.Attrs, p.TrieOrder))
		}
		out = append(out, tr)
	}
	return out
}

// Every kind deposits into the block-trie cache, so a plan without a
// TrieOrder is rejected up front rather than shuffled into nothing.
func TestRunRequiresTrieOrder(t *testing.T) {
	c := cluster.New(cluster.Config{N: 2})
	defer c.Close()
	for _, kind := range []Kind{Push, Pull, Merge} {
		if err := Run(c, "shuffle", Plan{Kind: kind}); err == nil {
			t.Fatalf("kind=%v: Run accepted a plan without TrieOrder", kind)
		}
	}
}

// Push, Pull and Merge must deliver identical cube contents, each worker
// holding its own cube's block of every relation and no other.
func TestShuffleKindsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	edges := testutil.RandEdges(rng, "E", 400, 30)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	order := q.Attrs()
	info := InfoOf(rels)

	contents := make([]map[string]string, 3)
	for ki, kind := range []Kind{Push, Pull, Merge} {
		c := cluster.New(cluster.Config{N: 4})
		c.LoadDatabase(rels)
		shares, err := Optimize(info, Config{Attrs: order, NumServers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := Run(c, "shuffle", Plan{Shares: shares, Rels: info, Kind: kind, TrieOrder: order}); err != nil {
			t.Fatal(err)
		}
		snap := make(map[string]string)
		for _, w := range c.Workers {
			for i, tr := range workerTries(w, info, order) {
				snap[fmt.Sprintf("%s/%d", info[i].Name, w.ID)] = tr.ToRelation("x").SortDedup().String()
			}
			for _, bb := range w.Blocks.BuiltBlocks() {
				ri := info[slices.IndexFunc(info, func(ri RelInfo) bool { return ri.Name == bb.Key.Rel })]
				if want := shares.cubeSig(shares.RelPositions(ri.Attrs), w.ID); bb.Key.Sig != want {
					t.Fatalf("kind=%v: worker %d holds block %d of %s, its cube matches %d", kind, w.ID, bb.Key.Sig, ri.Name, want)
				}
			}
		}
		contents[ki] = snap
		c.Close()
	}
	if !reflect.DeepEqual(contents[0], contents[1]) {
		t.Error("push vs pull cube contents differ")
	}
	if !reflect.DeepEqual(contents[1], contents[2]) {
		t.Error("pull vs merge cube contents differ")
	}
}

// Pull must move fewer messages than Push; Merge fewer bytes than Pull on
// prefix-heavy data.
func TestShuffleCostOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := testutil.RandEdges(rng, "E", 3000, 60)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	order := q.Attrs()
	info := InfoOf(rels)
	shares, err := Optimize(info, Config{Attrs: order, NumServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	msgs := map[Kind]int64{}
	for _, kind := range []Kind{Push, Pull, Merge} {
		c := cluster.New(cluster.Config{N: 8})
		c.LoadDatabase(rels)
		if err := Run(c, "sh", Plan{Shares: shares, Rels: info, Kind: kind, TrieOrder: order}); err != nil {
			t.Fatal(err)
		}
		msgs[kind] = c.Metrics.Entries()[0].Messages
		c.Close()
	}
	if msgs[Pull] >= msgs[Push] {
		t.Fatalf("pull messages %d should be < push %d", msgs[Pull], msgs[Push])
	}
	if msgs[Merge] != msgs[Pull] {
		t.Fatalf("merge messages %d should equal pull %d", msgs[Merge], msgs[Pull])
	}
}

// TestShuffleCubeContentsMatchBruteForce checks what each shuffle kind
// delivers against a per-row expectation: relation row t belongs to exactly
// the cubes DestCubes names, and worker w is cube w, so every worker's trie
// of a relation must enumerate the sorted distinct rows placed in its cube —
// and nothing may be lost. It covers
// the per-column signature accumulation in groupBlocks (against the
// per-row BlockSig sum behind DestCubes), the block sort and the codec.
func TestShuffleCubeContentsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []Kind{Push, Pull, Merge} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for iter := 0; iter < 8; iter++ {
				q, rels := testutil.RandQueryInstance(rng, 3, 4, 40, 8)
				order := q.Attrs()
				info := InfoOf(rels)
				n := 1 + rng.Intn(4)
				shares, err := Optimize(info, Config{Attrs: order, NumServers: n})
				if err != nil {
					t.Fatal(err)
				}
				want := make(map[string]*relation.Relation) // "rel/cube" -> rows placed there
				for _, r := range rels {
					relPos := shares.RelPositions(r.Attrs)
					for i := 0; i < r.Len(); i++ {
						row := r.Tuple(i)
						for _, cube := range shares.DestCubes(relPos, row) {
							key := fmt.Sprintf("%s/%d", r.Name, cube)
							if want[key] == nil {
								want[key] = relation.New("x", r.Attrs...)
							}
							want[key].AppendTuple(row)
						}
					}
				}

				c := cluster.New(cluster.Config{N: n, Sequential: true})
				c.LoadDatabase(rels)
				if err := Run(c, "shuffle", Plan{Shares: shares, Rels: info, Kind: kind, TrieOrder: order}); err != nil {
					t.Fatal(err)
				}
				for _, w := range c.Workers {
					for i, tr := range workerTries(w, info, order) {
						key := fmt.Sprintf("%s/%d", info[i].Name, w.ID)
						exp := want[key]
						if exp == nil {
							exp = relation.New("x", info[i].Attrs...)
						}
						delete(want, key)
						if got := tr.ToRelation("x"); !got.Equal(exp.Project(tr.Attrs...)) {
							t.Fatalf("iter %d: %s holds\n%v\nwant\n%v", iter, key, got, exp)
						}
					}
				}
				c.Close()
				for key, exp := range want {
					t.Fatalf("iter %d: no worker hosts %s (%d rows lost)", iter, key, exp.Len())
				}
			}
		})
	}
}

// envTransport rewrites every envelope a sender ships through rewrite: a
// well-formed chunk the receiver did not expect.
type envTransport struct {
	cluster.Transport
	rewrite func(e cluster.Envelope) cluster.Envelope
}

func (t *envTransport) OpenExchange(ctx context.Context, phase string, window int) (cluster.ExchangeStream, error) {
	st, err := t.Transport.OpenExchange(ctx, phase, window)
	if err != nil {
		return st, err
	}
	return &envStream{st, t.rewrite}, nil
}

type envStream struct {
	cluster.ExchangeStream
	rewrite func(e cluster.Envelope) cluster.Envelope
}

func (s *envStream) Sender(worker int) cluster.StreamSender {
	return &envSender{s.ExchangeStream.Sender(worker), s.rewrite}
}

type envSender struct {
	cluster.StreamSender
	rewrite func(e cluster.Envelope) cluster.Envelope
}

func (s *envSender) Send(e cluster.Envelope) error {
	return s.StreamSender.Send(s.rewrite(e))
}

// A key that names no shuffled relation, carries no parsable signature or
// names a block of a relation that the receiving worker's cube does not
// match is a corrupt payload: every kind reports it as a transport error
// (what Options.Retry keys on) instead of dropping the block or joining a
// cube the worker does not own.
func TestRewrittenKeyIsTransportError(t *testing.T) {
	const n = 4
	rels := hypergraph.Q1().BindGraph(testutil.RandEdges(rand.New(rand.NewSource(13)), "E", 400, 30))
	order := hypergraph.Q1().Attrs()
	info := InfoOf(rels)
	shares, err := Optimize(info, Config{Attrs: order, NumServers: n})
	if err != nil {
		t.Fatal(err)
	}
	rewrites := map[string]func(e cluster.Envelope) string{
		"unknown relation": func(e cluster.Envelope) string {
			_, sig, _ := strings.Cut(e.Key, "@")
			return "nope@" + sig
		},
		"unparsable signature": func(e cluster.Envelope) string {
			rel, _, _ := strings.Cut(e.Key, "@")
			return rel + "@x"
		},
		"signature of another worker": func(e cluster.Envelope) string {
			rel, sig, _ := strings.Cut(e.Key, "@")
			ri := info[slices.IndexFunc(info, func(ri RelInfo) bool { return ri.Name == rel })]
			s, _ := strconv.Atoi(sig)
			return rel + "@" + strconv.Itoa((s+1)%shares.NumBlocks(shares.RelPositions(ri.Attrs)))
		},
	}
	for _, ri := range info {
		if shares.NumBlocks(shares.RelPositions(ri.Attrs)) < 2 {
			t.Fatalf("p=%v leaves %s one block: no other worker's signature to name", shares.P, ri.Name)
		}
	}
	for _, kind := range []Kind{Push, Pull, Merge} {
		for name, rewrite := range rewrites {
			t.Run(kind.String()+"/"+name, func(t *testing.T) {
				rekey := func(e cluster.Envelope) cluster.Envelope {
					e.Key = rewrite(e)
					return e
				}
				c := cluster.New(cluster.Config{N: n, Transport: &envTransport{cluster.NewLocalTransport(n), rekey}})
				defer c.Close()
				c.LoadDatabase(rels)
				err := Run(c, "shuffle", Plan{Shares: shares, Rels: info, Kind: kind, TrieOrder: order})
				if !errors.Is(err, cluster.ErrTransport) || errors.Is(err, cluster.ErrWorkerPanic) {
					t.Fatalf("err %v, want a transport error and no panic", err)
				}
			})
		}
	}
}

// A Push or Pull chunk re-encoded under another schema — its first
// attribute renamed, or one column dropped — is a corrupt payload: Run
// returns a transport error instead of depositing a block whose trie
// build would panic in the join phase.
func TestRewrittenPayloadSchemaIsTransportError(t *testing.T) {
	const n = 4
	rels := hypergraph.Q1().BindGraph(testutil.RandEdges(rand.New(rand.NewSource(13)), "E", 400, 30))
	order := hypergraph.Q1().Attrs()
	info := InfoOf(rels)
	shares, err := Optimize(info, Config{Attrs: order, NumServers: n})
	if err != nil {
		t.Fatal(err)
	}
	rewrites := map[string]func(r *relation.Relation) *relation.Relation{
		"renamed attribute": func(r *relation.Relation) *relation.Relation {
			attrs := slices.Clone(r.Attrs)
			attrs[0] = "zz"
			return relation.FromColumns(r.Name, attrs, r.Columns())
		},
		"dropped column": func(r *relation.Relation) *relation.Relation {
			return relation.FromColumns(r.Name, r.Attrs[1:], r.Columns()[1:])
		},
	}
	for _, kind := range []Kind{Push, Pull} {
		for name, rewrite := range rewrites {
			t.Run(kind.String()+"/"+name, func(t *testing.T) {
				reschema := func(e cluster.Envelope) cluster.Envelope {
					r, err := relation.Decode(e.Payload)
					if err != nil {
						t.Errorf("chunk does not decode: %v", err)
						return e
					}
					e.Payload = relation.Encode(rewrite(r))
					return e
				}
				c := cluster.New(cluster.Config{N: n, Transport: &envTransport{cluster.NewLocalTransport(n), reschema}})
				defer c.Close()
				c.LoadDatabase(rels)
				err := Run(c, "shuffle", Plan{Shares: shares, Rels: info, Kind: kind, TrieOrder: order})
				if !errors.Is(err, cluster.ErrTransport) || errors.Is(err, cluster.ErrWorkerPanic) {
					t.Fatalf("err %v, want a transport error and no panic", err)
				}
			})
		}
	}
}
