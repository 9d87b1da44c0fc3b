package adj

import (
	"sync"

	"adj/internal/admission"
	"adj/internal/blockcache"
)

// Server is the multi-session serving handle: one content-keyed trie
// store with its plan cache, and one admission controller, shared by every
// session opened through it. Sessions of a server warm each other's tries
// and plans — both are keyed by relation content, so tenant A's cold run
// over a graph makes tenant B's Prepare and first run over the same graph
// warm (no sampling, no shuffle), and a session that re-registers content
// any session has planned adopts that plan. They compete under one global
// admission gate, so overload protection holds across the whole process,
// not per session.
//
//	srv := adj.NewServer(adj.ServerOptions{
//		Admission: adj.AdmissionConfig{MaxConcurrent: 4},
//	})
//	defer srv.Close()
//	sess, _ := srv.OpenShared(adj.Options{Workers: 8})
type Server struct {
	mu       sync.Mutex
	store    *blockcache.Store
	plans    *planCache
	ctrl     *admission.Controller
	sessions map[*Session]struct{}
	closed   bool
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// TrieStoreBytes bounds the shared block-trie store. 0 picks the
	// default (256 MiB); negative disables cross-query reuse, the plan
	// cache included, for every session of the server.
	TrieStoreBytes int64
	// Admission tunes the server-wide admission controller; zero-value
	// fields take the controller defaults (one slot, a generous queue).
	Admission AdmissionConfig
}

// NewServer creates a serving handle. Close it when done; Close also
// closes every session still open through it.
func NewServer(opts ServerOptions) *Server {
	store, plans := newReuse(opts.TrieStoreBytes)
	return &Server{
		store:    store,
		plans:    plans,
		ctrl:     admission.NewController(opts.Admission),
		sessions: make(map[*Session]struct{}),
	}
}

// OpenShared opens a session on the server: its executions pass the
// server's admission controller and publish into / adopt from the
// server's shared trie store and plan cache. opts.TrieStoreBytes and
// opts.Admission are ignored (the server owns both); the session's own
// cluster pool has one cluster per the server's concurrency limit.
func (srv *Server) OpenShared(opts Options) (*Session, error) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return nil, ErrSessionClosed
	}
	s := newSession(opts, srv.store, srv.plans, srv.ctrl, srv)
	srv.sessions[s] = struct{}{}
	return s, nil
}

// forget detaches a session that closed itself.
func (srv *Server) forget(s *Session) {
	srv.mu.Lock()
	delete(srv.sessions, s)
	srv.mu.Unlock()
}

// Close closes every open session of the server (waiting for their
// in-flight executions) and marks the server closed; later OpenShared
// calls fail. Idempotent.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	open := make([]*Session, 0, len(srv.sessions))
	for s := range srv.sessions {
		open = append(open, s)
	}
	srv.mu.Unlock()
	var err error
	for _, s := range open {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// ServerStats is a point-in-time view of the serving tier: session count,
// the shared admission controller (depth, in-flight, admitted / shed /
// rejected counters, latency EWMAs, per-tenant budget consumption), the
// shared trie store (resident bytes, hit/miss/eviction counters) and its
// plan cache (hit/miss counters, resident plans).
type ServerStats struct {
	// Sessions is the number of sessions currently open on the server.
	Sessions int
	// Admission snapshots the shared admission controller.
	Admission AdmissionStats
	// Store snapshots the shared block-trie store.
	Store TrieStoreStats
	// Plans snapshots the shared plan cache (zero when the store is
	// disabled). A lookup happens only when a prepared query's own plan
	// does not match its inputs: at Prepare, and at an Exec after a
	// re-registration changed content.
	Plans PlanCacheStats
}

// Stats snapshots the server.
func (srv *Server) Stats() ServerStats {
	srv.mu.Lock()
	n := len(srv.sessions)
	srv.mu.Unlock()
	return ServerStats{
		Sessions:  n,
		Admission: srv.ctrl.Stats(),
		Store:     srv.store.Stats(),
		Plans:     srv.plans.stats(),
	}
}
