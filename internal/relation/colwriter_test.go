package relation

import (
	"math/rand"
	"runtime"
	"testing"
)

// ColumnWriter runs must materialize exactly the expected rows: each run's
// prefix repeated over its values, in emission order.
func TestColumnWriterMatchesExpectedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		k := 1 + rng.Intn(4)
		attrs := make([]string, k)
		for j := range attrs {
			attrs[j] = string(rune('a' + j))
		}
		colRel := New("out", attrs...)
		var want [][]Value
		w := NewColumnWriter(colRel)
		prefix := make([]Value, k-1)
		for runs := 0; runs < 1+rng.Intn(8); runs++ {
			for j := range prefix {
				prefix[j] = rng.Int63n(50)
			}
			w.BeginRun(prefix)
			// Split the run's values over several AppendRun calls.
			total := rng.Intn(12)
			vals := make([]Value, total)
			for i := range vals {
				vals[i] = rng.Int63n(100)
			}
			for len(vals) > 0 {
				cut := 1 + rng.Intn(len(vals))
				w.AppendRun(vals[:cut])
				for _, v := range vals[:cut] {
					want = append(want, append(append([]Value(nil), prefix...), v))
				}
				vals = vals[cut:]
			}
			w.AppendRun(nil) // empty append is a no-op
		}
		if w.Rows() != len(want) {
			t.Fatalf("iter=%d: writer rows=%d, expected %d", iter, w.Rows(), len(want))
		}
		if !colRel.Equal(FromTuples("out", attrs, want)) {
			t.Fatalf("iter=%d: writer output differs from expected rows:\n%s\nvs\n%v", iter, colRel, want)
		}
	}
}

// Runs follow each other, Reserve pre-sizes without changing contents, and
// attaching to a non-empty relation appends after the existing tuples.
func TestColumnWriterMixedAndReserve(t *testing.T) {
	r := FromTuples("out", []string{"x", "y"}, [][]Value{{1, 2}})
	w := NewColumnWriter(r)
	w.Reserve(16)
	w.BeginRun([]Value{7})
	w.AppendRun([]Value{10, 11})
	w.BeginRun([]Value{9})
	w.AppendRun([]Value{13})
	want := FromTuples("out", []string{"x", "y"}, [][]Value{
		{1, 2}, {7, 10}, {7, 11}, {9, 13},
	})
	if !r.Equal(want) {
		t.Fatalf("got\n%s\nwant\n%s", r, want)
	}
	if w.Rows() != 4 {
		t.Fatalf("rows=%d want 4", w.Rows())
	}
}

// Arity misuse must panic loudly (programming errors, never data errors).
func TestColumnWriterPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := New("out", "x", "y")
	w := NewColumnWriter(r)
	expectPanic("bad prefix arity", func() { w.BeginRun([]Value{1, 2}) })
	expectPanic("zero attrs", func() { NewColumnWriter(New("empty")) })
}

// A relation appended run by run from empty — a cube's output on a first
// execution, before any count is known — allocates the 2–4× of its final
// bytes that doubling costs (twice the last capacity, which is under twice
// the rows): 2.62× at 200 k rows in runs of two. On append's schedule (1.25×
// steps for large slices) the same rows allocated 5.23× their size.
func TestRunAppendAllocCeiling(t *testing.T) {
	const rows, run = 200_000, 2
	vals := make([]Value, run)
	prefix := []Value{1, 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := New("out", "a", "b", "c")
	w := NewColumnWriter(out)
	for i := 0; i < rows/run; i++ {
		w.BeginRun(prefix)
		w.AppendRun(vals)
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(out.SizeBytes())
	t.Logf("%d rows in runs of %d: allocated %.2f× the final columns' bytes", out.Len(), run, ratio)
	if out.Len() != rows || ratio > 2.7 {
		t.Fatalf("%d rows appended by run allocated %.2f× their final size, want %d rows at ≤ 2.7×", out.Len(), ratio, rows)
	}
}
