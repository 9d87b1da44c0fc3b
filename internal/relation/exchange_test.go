package relation_test

import (
	"math/rand"
	"runtime"
	"testing"

	"adj/internal/relation"
)

// The two halves of a multi-round exchange that live in this package, on
// the shapes an exchange gives them: a sender hash-partitions a fragment
// four ways, a receiver appends a part that arrives as 8 192-row chunks.

// exchangeRelation returns n random rows over arity columns, ids drawn
// from n/4 values (a graph fragment's density).
func exchangeRelation(n, arity int) *relation.Relation {
	rng := rand.New(rand.NewSource(7))
	cols := make([][]relation.Value, arity)
	for j := range cols {
		cols[j] = make([]relation.Value, n)
		for i := range cols[j] {
			cols[j][i] = rng.Int63n(int64(n / 4))
		}
	}
	return relation.FromColumns("E", []string{"a", "b", "c", "d"}[:arity], cols)
}

const (
	streamRows  = 50000
	streamChunk = 8192 // cluster.DefaultChunkRows
)

// streamChunks cuts part into the chunks a sender would ship.
func streamChunks(part *relation.Relation) [][]byte {
	var chunks [][]byte
	for lo := 0; lo < part.Len(); lo += streamChunk {
		chunks = append(chunks, relation.AppendEncodeRange(nil, part, lo, lo+streamChunk))
	}
	return chunks
}

// appendStream is the receive loop: every chunk appended to one empty
// destination.
func appendStream(tb testing.TB, part *relation.Relation, chunks [][]byte) *relation.Relation {
	dst := relation.New(part.Name, part.Attrs...)
	for _, c := range chunks {
		if err := relation.DecodeAppend(c, dst, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}

// A part that arrives in chunks is the part, and receiving it allocates at
// most 2.5× the bytes its columns end up holding when nothing is recycled:
// columns at least double when they grow, so the steps sum to under twice
// the final size. (Growing by append's 1.25× steps after a decode into a
// scratch relation allocated 3.75×.)
func TestDecodeAppendStream(t *testing.T) {
	part := exchangeRelation(streamRows, 3).Sort()
	chunks := streamChunks(part)
	if got := appendStream(t, part, chunks); !got.Equal(part) {
		t.Fatalf("%d chunks appended one by one differ from the part they were cut from", len(chunks))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendStream(t, part, chunks)
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(part.SizeBytes())
	t.Logf("%d rows in %d chunks: allocated %.2f× the final columns' bytes", part.Len(), len(chunks), ratio)
	if ratio > 2.5 {
		t.Fatalf("receiving a %d-row part allocated %.2f× its final size, want ≤ 2.5×", part.Len(), ratio)
	}
}

func BenchmarkDecodeAppendStream(b *testing.B) {
	part := exchangeRelation(streamRows, 3).Sort()
	chunks := streamChunks(part)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRows = appendStream(b, part, chunks).Len()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(part.Len()), "ns/row")
}

// BenchmarkPartitionBy times the sender's half on the two key shapes an
// exchange uses: one key column of two (benchmark/probes.go's
// relation.partition_ns_per_tuple shape; HashValue places the rows) and two
// key columns of three (a binding relation; HashTuple places them).
func BenchmarkPartitionBy(b *testing.B) {
	for _, sh := range []struct {
		name  string
		arity int
		key   []int
	}{
		{"1key-of-2cols", 2, []int{1}},
		{"2keys-of-3cols", 3, []int{0, 2}},
	} {
		r := exchangeRelation(streamRows, sh.arity)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRows = r.PartitionBy(sh.key, 4)[0].Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Len()), "ns/row")
		})
	}
}
