package adj

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"adj/internal/admission"
	"adj/internal/blockcache"
	"adj/internal/cluster"
	"adj/internal/engine"
	"adj/internal/hcube"
	"adj/internal/relation"
)

// ErrSessionClosed is the stable error every operation on a closed session
// returns (Exec, Prepare, Register). errors.Is-able; Close itself stays
// idempotent and returns nil on repeat calls.
var ErrSessionClosed = errors.New("adj: session closed")

// defaultTrieStoreBytes is the session trie store's byte budget when
// Options.TrieStoreBytes is zero.
const defaultTrieStoreBytes = 256 << 20

// TrieStoreStats snapshots the session-resident block-trie store: resident
// blocks/bytes, the configured budget, and hit/miss/eviction counters.
type TrieStoreStats = blockcache.StoreStats

// Session is the server-resident execution surface: a long-lived worker
// pool answering a stream of join queries — the paper's deployment shape.
// Open creates the pool once; Register deposits relations and computes
// their content signatures; Prepare binds and plans a query once (paying
// sampling up front); Exec runs it with context cancellation and streams
// run-aware results.
//
// Underneath sits a session-resident, content-keyed block-trie store with
// an LRU byte budget: a cold execution publishes the block tries its HCube
// shuffle built, and every later execution over unchanged relation content
// adopts them directly — zero shuffle traffic and zero shuffle-side trie
// builds (Report.TrieBuilds == 0 on a warm run).
//
// A Session is safe for concurrent use and executes concurrently: it owns
// a small pool of resident clusters (one per concurrently admitted
// execution), and Exec calls from many goroutines each borrow one
// exclusively for the duration of their run. Every execution passes the session's admission controller
// first — a priority queue (interactive before bulk) with a bounded
// concurrency limiter, per-tenant budgets and load-shed watermarks — so
// under overload requests fail fast with a typed ErrOverloaded (bulk
// first) instead of queueing without bound. The trie store is shared by
// the whole pool, and by every session of a Server (OpenShared), so
// tenants warm each other's tries. Beside the store sits a plan cache
// keyed by planning inputs, shared the same way, so a query over content
// any of them has planned skips the sampler.
type Session struct {
	mu       sync.Mutex
	opts     Options
	pool     chan *cluster.Cluster // buffered; cap == len(clusters)
	clusters []*cluster.Cluster
	done     chan struct{} // closed by Close; unblocks pool waiters
	ctrl     *admission.Controller
	// store and plans are fixed at construction and read without mu.
	store  *blockcache.Store
	plans  *planCache
	srv    *Server // non-nil when opened through a Server
	rels   map[string]*registeredRel
	epochs uint64
	closed bool
}

type registeredRel struct {
	rel   *Relation
	sig   uint64
	epoch uint64
}

// Open creates a session: a resident pool of simulated clusters (each of
// opts.Workers workers), an admission controller sized to the pool, and
// the cross-query trie store with its plan cache. Close it when done.
func Open(opts Options) (*Session, error) {
	store, plans := newReuse(opts.TrieStoreBytes)
	return newSession(opts, store, plans, admission.NewController(opts.Admission), nil), nil
}

// newReuse builds the cross-query state for a trie-store budget: the
// store and its plan cache, or neither when the budget is negative.
func newReuse(storeBytes int64) (*blockcache.Store, *planCache) {
	switch {
	case storeBytes < 0:
		return nil, nil
	case storeBytes == 0:
		storeBytes = defaultTrieStoreBytes
	}
	return blockcache.NewStore(storeBytes), newPlanCache()
}

// newSession wires the common state behind Open and Server.OpenShared:
// the cluster pool (one cluster per the controller's concurrency limit, so
// every admitted request finds a free cluster), plus the given store, plan
// cache and admission controller.
func newSession(opts Options, store *blockcache.Store, plans *planCache, ctrl *admission.Controller, srv *Server) *Session {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Samples <= 0 {
		opts.Samples = 1000
	}
	size := ctrl.MaxConcurrent()
	s := &Session{
		opts:     opts,
		pool:     make(chan *cluster.Cluster, size),
		clusters: make([]*cluster.Cluster, size),
		done:     make(chan struct{}),
		ctrl:     ctrl,
		store:    store,
		plans:    plans,
		srv:      srv,
		rels:     make(map[string]*registeredRel),
	}
	for i := range s.clusters {
		s.clusters[i] = cluster.New(cluster.Config{N: opts.Workers})
		s.pool <- s.clusters[i]
	}
	return s
}

// Close shuts the session down: it marks the session closed (all further
// Exec/Prepare/Register calls return ErrSessionClosed, and executions
// queued in admission unblock with it), waits for in-flight executions to
// hand their clusters back, and releases every cluster. Close is
// idempotent — repeat calls return nil without re-running teardown.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()
	// Collect every pool cluster. In-flight executions return theirs when
	// they finish; waiters that lost the race see s.done and bail without
	// taking one, so exactly len(s.clusters) sends remain.
	var err error
	for range s.clusters {
		c := <-s.pool
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if s.srv != nil {
		s.srv.forget(s)
	}
	return err
}

// Register deposits a relation under name and computes its content
// signature — the key under which the session store caches the relation's
// block tries. Re-registering a name replaces the relation; changed content
// fingerprints differently, so the next execution over it runs cold (the
// stale tries age out of the LRU). The relation is retained by reference
// and must not be mutated while registered.
func (s *Session) Register(name string, rel *Relation) error {
	if rel == nil {
		return fmt.Errorf("adj: Register %q: nil relation", name)
	}
	if name == "" {
		return fmt.Errorf("adj: Register: empty relation name")
	}
	reg := &registeredRel{rel: rel}
	if s.store != nil {
		// The fingerprint only keys the trie store and the plan cache; with
		// reuse disabled (TrieStoreBytes < 0) the O(values) hash pass is
		// skipped entirely. It runs before s.mu is taken, so concurrent
		// Exec, Prepare and Register calls do not wait on it.
		reg.sig = relation.Fingerprint(rel)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.epochs++
	reg.epoch = s.epochs
	s.rels[name] = reg
	return nil
}

// RegisterDatabase registers every relation of db.
func (s *Session) RegisterDatabase(db Database) error {
	for name, r := range db {
		if err := s.Register(name, r); err != nil {
			return err
		}
	}
	return nil
}

// Registered reports whether name is registered.
func (s *Session) Registered(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.rels[name]
	return ok
}

// TrieStoreStats snapshots the session trie store (zero stats when reuse
// is disabled).
func (s *Session) TrieStoreStats() TrieStoreStats { return s.store.Stats() }

// Prepare binds q's atoms against the registered relations and computes the
// engine's planning artifact (sampling-based cardinality estimation, plan
// selection and the lowered physical program) exactly once. The returned
// PreparedQuery can be executed any number of times; executions rebind
// against the session's current registrations. A plan is keyed by the
// planning inputs — the engine, the query shape, every bound relation's
// content signature and the session's planning options (Workers, Samples,
// Seed, Budget, MemoryPerServer) — so a warm execution routes straight to
// the interpreter with zero sampling or planning cost, while an execution
// over re-registered relations with changed content replans automatically
// (the replanning time shows up in that report's Optimization).
//
// Plans are also kept in the plan cache beside the trie store, shared by
// every session of a Server: a Prepare, or a replan, whose key any of them
// has planned before adopts that plan and costs 0 s (PlanSeconds, and the
// report's Optimization). With the store disabled there is no plan cache.
//
// Prepare takes no context: its planning pass runs to completion. Replans
// inside Exec run under the exec's context.
func (s *Session) Prepare(engineName string, q Query) (*PreparedQuery, error) {
	return s.prepare(engineName, q, "")
}

// PrepareGraph prepares a subgraph query with every atom bound to the
// registered binary relation edgesName — the paper's benchmark setup.
func (s *Session) PrepareGraph(engineName string, q Query, edgesName string) (*PreparedQuery, error) {
	return s.prepare(engineName, q, edgesName)
}

func (s *Session) prepare(engineName string, q Query, graphRel string) (*PreparedQuery, error) {
	if err := checkEngine(engineName); err != nil {
		return nil, err
	}
	p := &PreparedQuery{s: s, engineName: engineName, q: q, graphRel: graphRel}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	rels, _, err := s.bindLocked(p)
	if err != nil {
		return nil, err
	}
	key := s.planKeyLocked(p)
	//adjlint:ignore ctxflow the session's one root context: benchmark/ pins Prepare's and PrepareGraph's ctx-less signatures
	plan, seconds, err := s.planLocked(context.Background(), p, rels, key)
	if err != nil {
		return nil, err
	}
	p.plan, p.planKey, p.planSeconds = plan, key, seconds
	return p, nil
}

// planLocked returns the plan for key and the planning seconds it cost:
// the plan cache's at 0 s when it holds one, otherwise a planning pass
// under ctx, cached only once it succeeds. Caller holds s.mu.
func (s *Session) planLocked(ctx context.Context, p *PreparedQuery, rels []*Relation, key uint64) (*engine.PreparedPlan, float64, error) {
	if pl, ok := s.plans.get(key); ok {
		return pl, 0, nil
	}
	pl, err := engine.Prepare(p.engineName, p.q, rels, s.opts.toConfig(ctx))
	if err != nil {
		return nil, 0, err
	}
	return s.plans.put(key, pl), pl.Seconds, nil
}

// planKeyLocked fingerprints a prepared query's planning inputs: the
// engine, the query shape, the content signature of every bound relation
// (its registration epoch when content hashing is off, i.e. the trie store
// is disabled) and the planning options Options.toConfig passes. Two equal
// keys mean the plan was computed from identical inputs and can be
// executed as-is. Caller holds s.mu.
func (s *Session) planKeyLocked(p *PreparedQuery) uint64 {
	h := relation.NewHash64()
	o := s.opts
	for _, v := range []int64{int64(o.Workers), int64(o.Samples), o.Seed, o.Budget, o.MemoryPerServer} {
		h.Word(uint64(v))
	}
	h.Bytes(p.engineName)
	h.Bytes(p.q.Name)
	for _, a := range p.q.Atoms {
		h.Bytes(a.Name)
		for _, at := range a.Attrs {
			h.Bytes(at)
		}
		name := a.Name
		if p.graphRel != "" {
			name = p.graphRel
		}
		if reg, ok := s.rels[name]; ok {
			if s.store != nil {
				h.Word(reg.sig)
			} else {
				h.Word(reg.epoch)
			}
		}
	}
	return h.Sum()
}

// bindLocked binds p's query atoms against the current registrations and
// returns the bound relations plus the atom-name → content-signature map
// the shuffle reuse layer keys on. Caller holds s.mu.
func (s *Session) bindLocked(p *PreparedQuery) ([]*Relation, map[string]uint64, error) {
	sigs := make(map[string]uint64, len(p.q.Atoms))
	if p.graphRel != "" {
		reg, ok := s.rels[p.graphRel]
		if !ok {
			return nil, nil, fmt.Errorf("adj: query %s: relation %q not registered", p.q.Name, p.graphRel)
		}
		if reg.rel.Arity() != 2 {
			return nil, nil, fmt.Errorf("adj: PrepareGraph %q: relation %q is not binary", p.q.Name, p.graphRel)
		}
		rels := p.q.BindGraph(reg.rel)
		for _, a := range p.q.Atoms {
			sigs[a.Name] = reg.sig
		}
		return rels, sigs, nil
	}
	db := make(Database, len(s.rels))
	for name, reg := range s.rels {
		db[name] = reg.rel
	}
	rels, err := p.q.Bind(db)
	if err != nil {
		return nil, nil, err
	}
	for _, a := range p.q.Atoms {
		sigs[a.Name] = s.rels[a.Name].sig
	}
	return rels, sigs, nil
}

// PreparedQuery is a query bound to a session with its planning done: the
// chosen plan (and the sampled cardinalities behind it) is cached, so Exec
// skips the optimization phase entirely.
type PreparedQuery struct {
	s          *Session
	engineName string
	q          Query
	graphRel   string
	plan       *engine.PreparedPlan
	planKey    uint64
	// planSeconds is what Prepare paid to plan: 0 when it adopted a
	// cached plan.
	planSeconds float64
}

// Engine returns the engine name the query was prepared for.
func (p *PreparedQuery) Engine() string { return p.engineName }

// Plan is the cached plan's one-line label.
func (p *PreparedQuery) Plan() string { return p.plan.Program.Label }

// PlanSeconds is the measured planning time Prepare paid: 0 when it adopted
// a plan from the plan cache. Exec does not charge it again: a report's
// Optimization covers only replans.
func (p *PreparedQuery) PlanSeconds() float64 { return p.planSeconds }

// Explain renders the prepared physical plan — the operator DAG Exec will
// interpret — as an indented tree with per-op strategy and cost
// annotations, without executing the distributed join (Prepare already
// sampled, which is where planning cost lives).
func (p *PreparedQuery) Explain() string { return p.plan.Program.Tree() }

// ExecOption tunes one execution.
type ExecOption func(*execOpts)

type execOpts struct {
	countOnly bool
	class     Class
	tenant    string
}

// CountOnly skips result materialization: the Results carry only the count
// and report (NextRun yields nothing). Counting runs are faster — the leaf
// intersections are tallied without emitting values.
func CountOnly() ExecOption {
	return func(o *execOpts) { o.countOnly = true }
}

// WithClass sets the execution's admission class (default Interactive).
// Bulk executions are granted after interactive ones and are shed first
// under overload.
func WithClass(c Class) ExecOption {
	return func(o *execOpts) { o.class = c }
}

// WithTenant charges the execution's shuffle bytes and measured CPU to the
// named tenant's decaying budget account; a tenant over budget is refused
// with ErrOverloaded until the account decays. Unset executions are
// unaccounted.
func WithTenant(tenant string) ExecOption {
	return func(o *execOpts) { o.tenant = tenant }
}

// Exec runs the prepared query on one of the session's resident clusters
// and returns a streaming, run-aware Results iterator. Exec is safe — and
// genuinely parallel — from many goroutines: each call passes admission
// (priority queue, concurrency limit, tenant budgets; see WithClass /
// WithTenant), borrows a pool cluster exclusively, and hands it back
// whatever happens. Under overload the call fails fast with a typed
// ErrOverloaded (bulk classes first) carrying a retry-after hint; a
// request whose ctx deadline cannot be met by the estimated queue wait is
// rejected immediately with context.DeadlineExceeded. ctx cancellation
// and deadline expiry are observed promptly at every stage — the
// admission queue, the pool checkout, phase barriers, each cube join's
// start and the Leapfrog inner loops — with no goroutines leaked; the returned
// error is then ctx.Err(). ctx must not be nil.
//
// Executions over unchanged registered relations go warm: the shuffle is
// skipped and every block trie is adopted from the shared store
// (Report.TrieBuilds == 0, Report.TrieCacheHits > 0). A shed, expired or
// failed execution leaves the pool fully healthy and the warm store
// intact.
func (p *PreparedQuery) Exec(ctx context.Context, opts ...ExecOption) (*Results, error) {
	eo := execOpts{class: Interactive}
	for _, o := range opts {
		o(&eo)
	}
	s := p.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	ctrl := s.ctrl
	s.mu.Unlock()

	// Admission: block for a slot (interactive ahead of bulk), or fail
	// typed — ErrOverloaded on shed, ctx.Err() on cancellation/expiry
	// while queued, DeadlineExceeded immediately when the deadline is
	// infeasible. No pool state is touched until a ticket is granted.
	ticket, err := ctrl.Admit(ctx, admission.Request{Class: eo.class, Tenant: eo.tenant})
	if err != nil {
		return nil, err
	}

	// Borrow a resident cluster. The admission limit normally matches the
	// pool size, so this is immediate; if the caller configured them apart
	// the wait stays ctx- and Close-aware.
	var clus *cluster.Cluster
	select {
	case clus = <-s.pool:
	case <-ctx.Done():
		ticket.Release(admission.Usage{})
		return nil, ctx.Err()
	case <-s.done:
		ticket.Release(admission.Usage{})
		return nil, ErrSessionClosed
	}
	var usage admission.Usage
	defer func() {
		// Exactly-once hand-back: the cluster to the pool (Close's drain
		// counts on it) and the slot to the controller, charged with what
		// the run consumed (zero on failure).
		s.pool <- clus
		ticket.Release(usage)
	}()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	rels, sigs, err := s.bindLocked(p)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}

	// Plan validation: the prepared query's plan is keyed by the planning
	// inputs, so a warm hit routes straight to the interpreter — zero
	// sampling, zero planning. A key mismatch (a relation was re-registered
	// with different content) looks the key up in the plan cache; a hit
	// adopts the cached plan at 0 s, a miss replans here and charges the
	// replanning time to this execution's Optimization phase. The replan
	// runs under this exec's ctx — a cancel or deadline stops it between
	// samples, leaving the stale plan and key for the next exec to redo and
	// the cache without an entry. Replanning holds s.mu, so concurrent
	// executions of the same prepared query replan once and the rest adopt
	// the refreshed plan.
	var replanSeconds float64
	if key := s.planKeyLocked(p); key != p.planKey {
		pl, seconds, err := s.planLocked(ctx, p, rels, key)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		p.plan, p.planKey = pl, key
		replanSeconds = seconds
	}
	plan := p.plan
	store := s.store
	sessOpts := s.opts
	s.mu.Unlock()

	cfg := sessOpts.toConfig(ctx)
	cfg.CollectOutput = !eo.countOnly
	cfg.Cluster = clus
	cfg.Prepared = plan
	if store != nil {
		cfg.Reuse = &hcube.Reuse{Store: store, Sigs: sigs}
	}

	// Fail-safe execution: any failure — a typed transport error, a
	// recovered worker panic, a cancellation, even a coordinator-side panic
	// caught by the guard — leaves the borrowed cluster fully usable for
	// the pool's next execution. The engine's release hook already drains
	// per-run worker state; the extra ResetRun here covers panics that
	// unwound past it. The shared trie store is untouched either way, so a
	// warm data set stays warm across a failed execution.
	rep, err := runGuarded(p.engineName, p.q, rels, cfg)
	if err != nil {
		clus.ResetRun()
		if sessOpts.Retry && cluster.IsTransient(err) && ctx.Err() == nil {
			// Transient transport failure and the caller opted in: re-run
			// once on the reset workers. The re-run's report is marked so
			// callers can count degraded executions.
			rep, err = runGuarded(p.engineName, p.q, rels, cfg)
			if err == nil {
				rep.Retried = true
			} else {
				clus.ResetRun()
			}
		}
		if err != nil {
			return nil, err
		}
	}
	rep.Optimization += replanSeconds
	rep.QueueSeconds = ticket.QueueSeconds()
	rep.AdmissionClass = ticket.Class().String()
	usage = admission.Usage{
		Bytes:      rep.BytesShuffled,
		CPUSeconds: rep.CPUSeconds(),
	}
	return newResults(rep), nil
}

// AdmissionStats snapshots the session's admission controller: queue
// depth, in-flight executions, admitted/shed/rejected counters, latency
// EWMAs and per-tenant budget consumption. Sessions of a Server share one
// controller; its server-wide view is Server.Stats.
func (s *Session) AdmissionStats() AdmissionStats { return s.ctrl.Stats() }

// runGuarded executes an engine run with coordinator-side panic
// containment: worker-body panics are already recovered by the cluster
// runtime, and this guard converts a panic anywhere else in the engine
// (planning leftovers, shuffle coordination, report assembly) into the
// same typed error class, so a session never crashes the process and
// never wedges its lock.
func runGuarded(engineName string, q Query, rels []*Relation, cfg engine.Config) (rep engine.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &cluster.WorkerPanicError{
				WorkerID: -1, // coordinator, not a worker
				Phase:    "coordinator",
				Value:    r,
				Stack:    debug.Stack(),
			}
		}
	}()
	return engine.Run(engineName, q, rels, cfg)
}
