package cluster

import (
	"sync"

	"adj/internal/relation"
)

// A multi-round exchange moves every tuple through three large, short-lived
// arrays on each side: the slot map and column backings a sender partitions
// into, and the columns a receiver decodes onto. Their sizes recur from one
// exchange to the next (the same query's rounds, the same query again), so
// each worker keeps the ones it has finished with and hands them out again
// instead of asking the allocator — and the collector — for tens of
// megabytes per run.
//
// The list belongs to one worker and dies with its cluster: sessions and
// tenants never exchange memory through it, and a one-shot cluster never
// sees a hit. A worker's producer and consumer halves run concurrently,
// hence the mutex. It is not a sync.Pool: what it holds is bounded by the
// retention rule below, not by the collector's schedule, so a steady
// workload's hit rate does not depend on GC timing.
//
// Contract for callers (internal/engine's exchange helpers are the only
// ones): a buffer handed out has arbitrary contents; a buffer handed back
// must no longer be referenced by anything that outlives the call — the
// next taker overwrites it.

// retainExchanges is the retention rule: when an exchange ends, a buffer
// that none of the worker's last retainExchanges exchanges took is dropped.
// One BigJoin or SparkSQL run alternates small and large rounds, so a
// round's large buffers are next wanted 2–5 exchanges later, and a resident
// cluster that repeats one query wants a round's buffers again a whole run
// later (the triangle is 4 exchanges under BigJoin and 2 under SparkSQL; the
// shuffle-tcp workload alternates the two, 6 exchanges a cycle). Too small
// a value re-allocates every run what the previous run just dropped; a
// buffer idle for longer than this belongs to a query that has stopped
// running.
const retainExchanges = 8

// maxSlack bounds how much larger than the request a reused buffer may be.
// Without it a small exchange would take — and thereby keep alive — the
// buffers of a large one that will never recur.
const maxSlack = 2

// freeList is a worker's free buffers of one element type.
type freeList[T any] struct {
	mu   sync.Mutex
	seq  int64 // exchanges this worker has finished
	held []heldBuf[T]
}

// heldBuf is one free buffer and the exchange that last used it.
type heldBuf[T any] struct {
	buf  []T
	used int64
}

// take removes and returns the smallest buffer of at least n elements and
// at most maxSlack×n, resliced to n, or allocates one.
func (l *freeList[T]) take(n int) []T {
	l.mu.Lock()
	best := -1
	for i, h := range l.held {
		if c := cap(h.buf); c >= n && c <= maxSlack*n && (best < 0 || c < cap(l.held[best].buf)) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]T, n)
	}
	buf := l.held[best].buf
	last := len(l.held) - 1
	l.held[best] = l.held[last]
	l.held[last] = heldBuf[T]{}
	l.held = l.held[:last]
	l.mu.Unlock()
	return buf[:n]
}

// put adds buf to the list, stamped with the current exchange.
func (l *freeList[T]) put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	l.mu.Lock()
	l.held = append(l.held, heldBuf[T]{buf: buf[:0], used: l.seq})
	l.mu.Unlock()
}

// retire ends an exchange: buffers idle for retainExchanges exchanges go.
func (l *freeList[T]) retire() {
	l.mu.Lock()
	l.seq++
	kept := l.held[:0]
	for _, h := range l.held {
		if l.seq-h.used <= retainExchanges {
			kept = append(kept, h)
		}
	}
	clear(l.held[len(kept):])
	l.held = kept
	l.mu.Unlock()
}

// Values returns a column buffer of length n with arbitrary contents, from
// the worker's free list when it holds one of a fitting size.
func (w *Worker) Values(n int) []relation.Value { return w.values.take(n) }

// PutValues hands a column buffer to the worker's free list. The caller
// must hold the only reference: the next Values call may return it.
func (w *Worker) PutValues(b []relation.Value) { w.values.put(b) }

// Int32s is Values for row-id scratch.
func (w *Worker) Int32s(n int) []int32 { return w.int32s.take(n) }

// PutInt32s is PutValues for row-id scratch.
func (w *Worker) PutInt32s(b []int32) { w.int32s.put(b) }
