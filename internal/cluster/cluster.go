package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"adj/internal/blockcache"
	"adj/internal/relation"
)

// Worker is one simulated server: its local relation fragments and the
// block-trie registry an HCube shuffle fills.
type Worker struct {
	ID int
	N  int
	// Rels holds local fragments of base/derived relations, keyed by name.
	Rels map[string]*relation.Relation
	// Blocks is the worker's block-trie cache: the HCube shuffle deposits
	// the parts of its cube's one block per relation here and the join
	// phase pulls each relation's trie, built exactly once (see blockcache).
	Blocks *blockcache.Registry
	// arena holds per-exchange payload allocations; reset after consume.
	arena payloadArena
	// values and int32s are the worker's free lists of column and row-id
	// buffers (buffers.go); exchanges take from and return to them.
	values freeList[relation.Value]
	int32s freeList[int32]
}

// PayloadCopy copies enc into the worker's per-exchange payload arena and
// returns the stable copy. Envelope payloads built this way share slab
// allocations instead of one garbage buffer each; the arena is recycled at
// the end of the exchange, so payloads must not be retained past consume
// (decoders copy, so this holds everywhere in the runtime).
func (w *Worker) PayloadCopy(enc []byte) []byte { return w.arena.copyOf(enc) }

// encScratch pools the delta-encoder's working buffer shared by every
// exchange producer; the finished bytes are copied into the worker's
// payload arena, so neither side of the encode allocates in steady state.
var encScratch = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 1<<14)
	return &b
}}

// DefaultChunkRows bounds the rows per stream chunk when a producer
// passes chunkRows <= 0: large enough to amortize framing, small enough
// that receivers start decoding long before a big block finishes sending.
const DefaultChunkRows = 8192

// EncodeRelationChunks serializes r with the delta codec in row-range
// chunks of at most chunkRows rows (<= 0 uses DefaultChunkRows), invoking
// fn once per chunk with the payload, the row range [lo, hi), and the chunk
// ordinal. Each chunk is encoded into a pooled scratch buffer and parked in
// the worker's per-exchange arena; every exchange producer (HCube blocks,
// BigJoin binding rounds, binary-join partitions) ships through here. Each
// chunk is an independently decodable relation encoding; a relation at or
// under chunkRows rows (an empty one included) yields exactly one chunk,
// byte-identical to relation.Encode's output. Iteration stops at fn's first
// error.
func (w *Worker) EncodeRelationChunks(r *relation.Relation, chunkRows int, fn func(payload []byte, lo, hi, chunk int) error) error {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	sp := encScratch.Get().(*[]byte)
	defer func() { encScratch.Put(sp) }()
	n := r.Len()
	for lo, chunk := 0, 0; chunk == 0 || lo < n; lo, chunk = lo+chunkRows, chunk+1 {
		hi := min(lo+chunkRows, n)
		buf := relation.AppendEncodeRange((*sp)[:0], r, lo, hi)
		*sp = buf[:0]
		if err := fn(w.PayloadCopy(buf), lo, hi, chunk); err != nil {
			return err
		}
	}
	return nil
}

// payloadArena is a slab allocator for envelope payloads. Slabs grow
// geometrically from arenaFirstSlab to arenaSlabSize, so an exchange that
// ships a few kilobytes allocates a few kilobytes, and one that ships
// megabytes opens few slabs. Reset keeps the current slab, so
// steady-state exchanges reuse one allocation.
type payloadArena struct {
	slabs [][]byte
	cur   []byte
}

const (
	arenaFirstSlab = 1 << 12
	arenaSlabSize  = 1 << 18
)

func (a *payloadArena) copyOf(b []byte) []byte {
	n := len(b)
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		size := max(min(2*cap(a.cur), arenaSlabSize), arenaFirstSlab, n)
		if a.cur != nil {
			a.slabs = append(a.slabs, a.cur)
		}
		a.cur = make([]byte, 0, size)
	}
	off := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[off : off+n : off+n]
}

func (a *payloadArena) reset() {
	// Keep only the current (largest-lived) slab for reuse.
	a.slabs = a.slabs[:0]
	a.cur = a.cur[:0]
}

func newWorker(id, n int) *Worker {
	return &Worker{
		ID: id, N: n,
		Rels:   make(map[string]*relation.Relation),
		Blocks: blockcache.New(),
	}
}

// ResetCubes clears the worker's cube — its block-trie registry — between
// shuffles.
func (w *Worker) ResetCubes() { w.Blocks = blockcache.New() }

// Config configures a cluster.
type Config struct {
	// N is the number of workers (the paper uses up to 28).
	N int
	// Transport defaults to LocalTransport.
	Transport Transport
	// Sequential runs phase bodies one worker at a time and defines phase
	// wall time as the max per-worker time — the deterministic simulation
	// mode, which times a 28-worker cluster faithfully on a 2-core machine.
	// The default runs one goroutine per worker, using the real hardware.
	Sequential bool
}

// Cluster is a simulated cluster executing BSP phases.
type Cluster struct {
	N        int
	Workers  []*Worker
	Metrics  *Metrics
	transp   Transport
	parallel bool
	// parent is the caller's run context (SetContext's argument; never
	// nil). Its error is what a cancelled run reports.
	parent context.Context
	// ctx derives from parent with an internal cancel the runtime fires on
	// a worker panic, so peers observe prompt cancellation even when the
	// caller's context stays live. Phases check it at every barrier;
	// in-phase cancellation is handled by the workloads themselves (the
	// cube joins poll the same context via CancelPoll).
	ctx       context.Context
	cancelRun context.CancelFunc
	// panicHook, when non-nil, runs at the start of every worker's phase
	// body (fault injection: a hook that panics exercises the containment
	// path). Production runs leave it nil.
	panicHook func(phase string, workerID int)
}

// New builds a cluster.
func New(cfg Config) *Cluster {
	if cfg.N <= 0 {
		cfg.N = 1
	}
	if cfg.Transport == nil {
		cfg.Transport = NewLocalTransport(cfg.N)
	}
	c := &Cluster{
		N:        cfg.N,
		Metrics:  NewMetrics(),
		transp:   cfg.Transport,
		parallel: !cfg.Sequential,
	}
	//adjlint:ignore ctxflow constructor default: every execution re-installs its own context via SetContext
	c.SetContext(context.Background())
	for i := 0; i < cfg.N; i++ {
		c.Workers = append(c.Workers, newWorker(i, cfg.N))
	}
	return c
}

// Close releases the transport.
func (c *Cluster) Close() error {
	if c.cancelRun != nil {
		c.cancelRun()
	}
	return c.transp.Close()
}

// SetContext installs the cancellation context for subsequent phases.
// A nil ctx resets to Background. A session-resident cluster calls this at
// the start of every execution with that execution's context. The
// installed context is re-derived with an internal cancel so a worker
// panic can cancel its peers promptly without touching the caller's
// context; re-installing (the next run) re-arms it.
func (c *Cluster) SetContext(ctx context.Context) {
	if ctx == nil {
		//adjlint:ignore ctxflow documented nil-reset: SetContext(nil) restores the uncancellable default
		ctx = context.Background()
	}
	if c.cancelRun != nil {
		c.cancelRun() // release the previous run's derived context
	}
	c.parent = ctx
	c.ctx, c.cancelRun = context.WithCancel(ctx)
}

// Context returns the current run's context (never nil). It is cancelled
// when the caller's context is cancelled or when a worker panic aborts the
// run.
func (c *Cluster) Context() context.Context { return c.ctx }

// CancelPoll returns a cheap poll reporting whether the current run is
// cancelled (caller cancellation or a peer worker's panic). Workloads with
// long inner loops (the cube loop, the Leapfrog intersections) poll
// it between batches so an abort lands mid-phase, not at the next barrier.
func (c *Cluster) CancelPoll() func() bool {
	ctx := c.ctx
	return func() bool { return ctx.Err() != nil }
}

// SetPanicHook installs a hook invoked at the start of every worker phase
// body — the deterministic fault-injection point for panic containment
// (see internal/faultinject). nil removes it.
func (c *Cluster) SetPanicHook(hook func(phase string, workerID int)) {
	c.panicHook = hook
}

// ResetRun clears all per-run worker state: payload arenas (emptied; the
// current slab stays for the next run), block-trie registries and relation
// fragments. A session calls it after a failed or cancelled execution so no
// half-built registry can leak into the next run (a clean run re-loads
// everything it needs; the session-level trie store is separate state and
// survives, and so do the workers' free buffer lists, which hold only
// buffers nothing references).
func (c *Cluster) ResetRun() {
	for _, w := range c.Workers {
		w.arena.reset()
		w.Rels = make(map[string]*relation.Relation)
		w.ResetCubes()
	}
}

// ResetMetrics starts a fresh record (workers keep their data).
func (c *Cluster) ResetMetrics() { c.Metrics = NewMetrics() }

// Parallel runs fn on every worker and records one entry whose Seconds is
// the maximum per-worker duration (simulated parallel wall clock).
//
// Panic containment: a panic in any worker's phase body (either mode) is
// recovered into a *WorkerPanicError carrying the worker ID, phase and
// stack, the run's derived context is cancelled so peer workers polling it
// bail out promptly, and exactly one error propagates — the panic, never
// the collateral cancellations it provoked.
func (c *Cluster) Parallel(phase string, fn func(w *Worker) error) error {
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("phase %s: %w", phase, err)
	}
	durs := make([]time.Duration, c.N)
	errs := make([]error, c.N)
	if c.parallel {
		var wg sync.WaitGroup
		for i := 0; i < c.N; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				errs[i] = c.runWorker(phase, c.Workers[i], fn)
				durs[i] = time.Since(t0)
			}(i)
		}
		wg.Wait()
	} else {
		for i := 0; i < c.N; i++ {
			if err := c.ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			t0 := time.Now()
			errs[i] = c.runWorker(phase, c.Workers[i], fn)
			durs[i] = time.Since(t0)
		}
	}
	c.Metrics.add(Entry{Kind: ParallelEntry, Phase: phase, Seconds: slices.Max(durs).Seconds()})
	return c.foldErrors(phase, errs)
}

// runWorker executes one worker's phase body with panic containment: a
// panic is recovered into a *WorkerPanicError and the run's derived
// context is cancelled so every peer observes the abort promptly (at its
// next barrier check or inner-loop poll).
func (c *Cluster) runWorker(phase string, w *Worker, fn func(w *Worker) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &WorkerPanicError{
				WorkerID: w.ID,
				Phase:    phase,
				Value:    r,
				Stack:    debug.Stack(),
			}
			c.Metrics.AddPanicRecovered()
			c.cancelRun()
		}
	}()
	if c.panicHook != nil {
		c.panicHook(phase, w.ID)
	}
	return fn(w)
}

// foldErrors reduces per-worker errors to the single error a phase
// reports, by root-cause priority: a recovered panic beats everything (the
// cancellations it provoked are collateral); then a caller-level
// cancellation (the user's context, not the internal abort); then the
// first remaining error in worker order.
func (c *Cluster) foldErrors(phase string, errs []error) error {
	var panicErr, firstErr error
	firstWorker := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		var wp *WorkerPanicError
		if panicErr == nil && errors.As(err, &wp) {
			panicErr = err
		}
		if firstErr == nil {
			firstErr, firstWorker = err, i
		}
	}
	if panicErr != nil {
		return fmt.Errorf("phase %s: %w", phase, panicErr)
	}
	if firstErr == nil {
		return nil
	}
	if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
		// Distinguish the caller's cancellation from the internal panic
		// abort (already handled above) — report the parent context's error
		// when it fired, else fall through to the worker's own error.
		if perr := c.parent.Err(); perr != nil {
			return fmt.Errorf("phase %s: %w", phase, perr)
		}
	}
	return fmt.Errorf("phase %s worker %d: %w", phase, firstWorker, firstErr)
}

// LoadRelation distributes r across workers as contiguous splits, the way
// a distributed file system hands out a file: worker i holds one run of
// consecutive rows, and the first Len() % N workers hold one row more than
// the rest. Relations are stored sorted, so each fragment is a key range,
// and a sender's part of every HCube block covers a range of the block's
// keys that no other sender's part overlaps except at its ends — which is
// what lets the Merge shuffle's receiver copy the parts' tries in bulk
// instead of interleaving them value by value. Fragments keep the
// relation's name and own their columns.
func (c *Cluster) LoadRelation(r *relation.Relation) {
	n := r.Len()
	lo := 0
	for i, w := range c.Workers {
		hi := lo + n/c.N
		if i < n%c.N {
			hi++
		}
		cols := make([][]relation.Value, r.Arity())
		for j, col := range r.Columns() {
			cols[j] = make([]relation.Value, hi-lo)
			copy(cols[j], col[lo:hi])
		}
		w.Rels[r.Name] = relation.FromColumns(r.Name, r.Attrs, cols)
		lo = hi
	}
}

// LoadDatabase distributes every relation.
func (c *Cluster) LoadDatabase(rels []*relation.Relation) {
	for _, r := range rels {
		c.LoadRelation(r)
	}
}

// GatherCounts sums a per-worker int64 extractor (e.g. local result counts).
func (c *Cluster) GatherCounts(get func(w *Worker) int64) int64 {
	var t int64
	for _, w := range c.Workers {
		t += get(w)
	}
	return t
}

// LocalSize returns the number of tuples of relation name on worker w
// (0 when absent).
func (w *Worker) LocalSize(name string) int {
	if r, ok := w.Rels[name]; ok {
		return r.Len()
	}
	return 0
}
