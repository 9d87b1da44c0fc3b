package trie_test

import (
	"fmt"
	"testing"

	"adj/internal/leapfrog"
	"adj/internal/relation"
	"adj/internal/trie"
)

// FuzzTrieDecode: the Merge shuffle decodes tries straight off the wire, so
// whatever the bytes, Decode never panics, and what it accepts is a trie the
// join can run on: it enumerates exactly NumTuples ascending tuples, merges
// with a built trie whose values interleave with its own into Build of the
// union, joins with itself to the same count (every level a ring of two:
// frames, the root directory and the leaf kernel all read it), and merges
// with itself to itself. testdata/fuzz/FuzzTrieDecode holds the payloads whose shape
// Decode used to accept: a starts array one entry short (Iterator.Open
// indexed past it), a descending root, an empty child range.
func FuzzTrieDecode(f *testing.F) {
	for _, seed := range []*relation.Relation{
		relation.FromTuples("R", []string{"a", "b"}, [][]relation.Value{{1, 2}, {3, 4}, {3, 6}, {-5, 1 << 40}}),
		relation.FromTuples("U", []string{"a"}, [][]relation.Value{{7}, {9}}),
		relation.FromTuples("T", []string{"a", "b", "c"}, [][]relation.Value{{1, 1, 1}, {1, 2, 1}, {2, 1, 1}}),
		relation.New("empty", "a", "b"),
	} {
		f.Add(trie.AppendEncode(nil, trie.Build(seed, seed.Attrs)))
	}
	wide := relation.New("W", "a", "b")
	for v := relation.Value(0); v < 80; v++ {
		wide.Append(v*v, v) // a root long enough to carry a directory
	}
	f.Add(trie.AppendEncode(nil, trie.Build(wide, wide.Attrs)))
	f.Fuzz(func(t *testing.T, buf []byte) {
		tr, err := trie.Decode(buf)
		if err != nil {
			return
		}
		n := 0
		var prev relation.Tuple
		tr.Enumerate(func(tp relation.Tuple) {
			if n > 0 && !lexLess(prev, tp) {
				t.Fatalf("tuple %d %v does not follow %v", n, tp, prev)
			}
			prev = append(prev[:0], tp...)
			n++
		})
		if n != tr.Len() {
			t.Fatalf("enumerated %d tuples of %d", n, tr.Len())
		}
		if tr.Arity() == 0 {
			return
		}
		checkMergeWithInterleaved(t, tr)
		if !distinctNames(tr.Attrs) {
			return // no attribute order to join under
		}
		st, err := leapfrog.Join([]*trie.Trie{tr, tr}, tr.Attrs, leapfrog.Options{})
		if err != nil || st.Results != int64(n) {
			t.Fatalf("self-join of %v: %d results, err %v", tr, st.Results, err)
		}
		twin := *tr
		if m := trie.Merge([]*trie.Trie{tr, &twin}); m.Len() != n {
			t.Fatalf("self-merge of %v has %d tuples", tr, m.Len())
		}
	})
}

// checkMergeWithInterleaved merges tr with a fixed built trie of its arity
// whose small values fall between and onto the seeds' values, so some nodes
// are in both inputs and some subtrees in one only (the path a self-merge
// never takes): the merge must hold the sorted, deduplicated union of the
// two, laid out level for level as Build lays out that union.
func checkMergeWithInterleaved(t *testing.T, tr *trie.Trie) {
	k := tr.Arity()
	attrs := make([]string, k) // distinct names: tr's may repeat
	for j := range attrs {
		attrs[j] = fmt.Sprintf("c%d", j)
	}
	fixed := relation.New("F", attrs...)
	row := make(relation.Tuple, k)
	for i := 0; i < 12; i++ {
		for j := range row {
			row[j] = relation.Value((i*(j+1))%5 - 1)
		}
		fixed.AppendTuple(row)
	}
	union := relation.New("U", attrs...)
	union.AppendAll(fixed)
	tr.Enumerate(func(tp relation.Tuple) { union.AppendTuple(tp) })
	other := *trie.Build(fixed, attrs)
	other.Attrs = tr.Attrs
	m := trie.Merge([]*trie.Trie{tr, &other})
	got := m.ToRelation("U")
	got.Attrs = attrs
	if want := union.SortDedup(); !got.Equal(want) {
		t.Fatalf("merge of %v with the interleaved trie: %v, want %v", tr, got, want)
	}
	want := trie.Build(union, attrs)
	want.Attrs = tr.Attrs
	if diff := trie.LayoutDiff(m, want); diff != "" {
		t.Fatalf("merge of %v with the interleaved trie: %s", tr, diff)
	}
}

func lexLess(a, b relation.Tuple) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func distinctNames(attrs []string) bool {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			return false
		}
		seen[a] = true
	}
	return true
}
