package cluster

import "unsafe"

// RetainedBytes is the capacity, in bytes, of everything w's free lists
// hold — the retention tests' only window into them.
func RetainedBytes(w *Worker) int {
	return heldBytes(&w.values) + heldBytes(&w.int32s)
}

func heldBytes[T any](l *freeList[T]) int {
	var zero T
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, h := range l.held {
		n += cap(h.buf) * int(unsafe.Sizeof(zero))
	}
	return n
}

// StreamSettle is streamSettle for the package's external tests.
var StreamSettle = streamSettle
