package cluster

import (
	"slices"
	"sync"
	"testing"

	"adj/internal/relation"
)

// heldCaps lists the capacities a free list holds, ascending.
func heldCaps[T any](l *freeList[T]) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	caps := make([]int, len(l.held))
	for i, h := range l.held {
		caps[i] = cap(h.buf)
	}
	slices.Sort(caps)
	return caps
}

// take hands out the smallest held buffer that fits and is at most twice
// the request; anything else is a fresh allocation of exactly the request.
func TestFreeListBestFitWithinSlack(t *testing.T) {
	var l freeList[relation.Value]
	for _, c := range []int{100, 1000, 300, 10000} {
		l.put(make([]relation.Value, c))
	}
	for _, tc := range []struct{ n, wantCap int }{
		{250, 300},   // 300 and 1000 fit; 300 is the smaller
		{120, 120},   // only 1000 and 10000 fit now, both over 2×120: fresh
		{600, 1000},  // 1000 ≤ 2×600
		{4000, 4000}, // 10000 > 2×4000: fresh, the large buffer stays
		{90, 100},
	} {
		b := l.take(tc.n)
		if len(b) != tc.n || cap(b) != tc.wantCap {
			t.Fatalf("take(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.wantCap)
		}
	}
	if got := heldCaps(&l); !slices.Equal(got, []int{10000}) {
		t.Fatalf("list holds %v after the takes, want [10000]", got)
	}
	l.put(nil) // nothing to hold
	if got := heldCaps(&l); len(got) != 1 {
		t.Fatalf("putting a nil buffer changed the list: %v", got)
	}
}

// exchangeUsing runs one exchange in which every worker's producer and
// consumer each take a column buffer of n values, and a row-id buffer, from
// the worker and hand them back — the access pattern of a partition and a
// receive target, both halves at once.
func exchangeUsing(t *testing.T, c *Cluster, n int) {
	t.Helper()
	use := func(w *Worker) {
		vals, ids := w.Values(n), w.Int32s(n)
		for i := range vals {
			vals[i], ids[i] = relation.Value(w.ID), int32(w.ID)
		}
		w.PutValues(vals)
		w.PutInt32s(ids)
	}
	err := c.StreamExchange("x",
		func(w *Worker, s StreamSender) error { use(w); return nil },
		func(w *Worker, r StreamReceiver) error {
			use(w)
			_, _, err := r.Recv()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
}

// The retention rule: a buffer none of a worker's last retainExchanges
// exchanges took is dropped when an exchange ends. One large exchange
// followed by small ones — which never take the large buffers: they are
// over twice the request — leaves nothing of the large one's size, and the
// small ones' own buffers are reused, not accumulated.
func TestFreeListRetention(t *testing.T) {
	const large, small = 1 << 16, 1 << 8
	for _, sequential := range []bool{false, true} {
		c := New(Config{N: 3, Sequential: sequential})
		exchangeUsing(t, c, large)
		for _, w := range c.Workers {
			if caps := heldCaps(&w.values); len(caps) == 0 || caps[len(caps)-1] != large {
				t.Fatalf("sequential=%v: worker %d holds %v after the large exchange, want its %d-value buffers", sequential, w.ID, caps, large)
			}
		}
		for i := 0; i < retainExchanges; i++ {
			exchangeUsing(t, c, small)
			if i < retainExchanges-1 {
				if caps := heldCaps(&c.Workers[0].values); caps[len(caps)-1] != large {
					t.Fatalf("sequential=%v: large buffers gone after %d small exchanges, retainExchanges is %d", sequential, i+1, retainExchanges)
				}
			}
		}
		exchangeUsing(t, c, small)
		for _, w := range c.Workers {
			vals, ids := heldCaps(&w.values), heldCaps(&w.int32s)
			if len(vals) == 0 || len(vals) > 2 || vals[len(vals)-1] != small || len(ids) > 2 || ids[len(ids)-1] != small {
				t.Fatalf("sequential=%v: worker %d holds value buffers %v and row-id buffers %v after %d small exchanges, want at most two of %d each",
					sequential, w.ID, vals, ids, retainExchanges+1, small)
			}
		}
		c.Close()
	}
}

// A worker's two halves use its lists at once; run under -race.
func TestFreeListConcurrentHalves(t *testing.T) {
	w := newWorker(0, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := w.Values(64 + (i+g)%64)
				for j := range b {
					b[j] = relation.Value(g)
				}
				for _, v := range b {
					if v != relation.Value(g) {
						t.Errorf("buffer handed to two takers at once")
						return
					}
				}
				w.PutValues(b)
				if i%100 == 0 {
					w.values.retire()
				}
			}
		}(g)
	}
	wg.Wait()
}
