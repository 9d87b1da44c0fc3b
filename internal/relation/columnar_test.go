package relation

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

func TestColumnsHoldAttributesInRowOrder(t *testing.T) {
	r := FromTuples("R", []string{"a", "b", "c"}, [][]Value{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	cols := r.Columns()
	if len(cols) != 3 {
		t.Fatalf("columns=%d", len(cols))
	}
	for j, want := range [][]Value{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}} {
		if !slices.Equal(cols[j], want) {
			t.Fatalf("col %d = %v, want %v", j, cols[j], want)
		}
	}
	r.Append(10, 11, 12)
	if got := r.Column(0); len(got) != 4 || got[3] != 10 {
		t.Fatalf("column 0 after append = %v", got)
	}
}

// How a relation was constructed leaves no trace: FromColumns and
// FromTuples of the same content are Equal, row for row.
func TestFromColumnsEqualsFromTuples(t *testing.T) {
	r := FromColumns("R", []string{"x", "y"}, [][]Value{{1, 3, 5}, {2, 4, 6}})
	if r.Len() != 3 || r.Arity() != 2 {
		t.Fatalf("len=%d arity=%d", r.Len(), r.Arity())
	}
	if tup := r.Tuple(1); tup[0] != 3 || tup[1] != 4 {
		t.Fatalf("tuple 1 = %v", tup)
	}
	want := FromTuples("R", []string{"x", "y"}, [][]Value{{1, 2}, {3, 4}, {5, 6}})
	if !r.Equal(want) {
		t.Fatalf("mismatch:\n%v\nvs\n%v", r, want)
	}
}

func TestAppendAllCopies(t *testing.T) {
	src := FromColumns("S", []string{"x", "y"}, [][]Value{{1, 2}, {10, 20}})
	dst := New("D", "x", "y")
	dst.AppendAll(src)
	dst.AppendAll(src)
	if dst.Len() != 4 {
		t.Fatalf("len=%d", dst.Len())
	}
	want := FromTuples("D", []string{"x", "y"}, [][]Value{{1, 10}, {2, 20}, {1, 10}, {2, 20}})
	if !dst.Equal(want) {
		t.Fatalf("got %v", dst)
	}
	// Mutating the source afterwards must not affect dst (AppendAll copies).
	src.Columns()[0][0] = 99
	if dst.Tuple(0)[0] != 1 {
		t.Fatal("AppendAll must copy column data")
	}
}

func TestAppendColumns(t *testing.T) {
	r := New("R", "a", "b")
	r.AppendColumns([][]Value{{1, 2}, {5, 6}})
	r.AppendColumns([][]Value{{3}, {7}})
	want := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 5}, {2, 6}, {3, 7}})
	if !r.Equal(want) {
		t.Fatalf("got %v want %v", r, want)
	}
}

func TestCloneDeepCopiesColumns(t *testing.T) {
	r := FromColumns("R", []string{"a"}, [][]Value{{1, 2, 3}})
	c := r.Clone()
	c.Columns()[0][0] = 42
	if r.Column(0)[0] != 1 {
		t.Fatal("clone must deep-copy columns")
	}
}

func TestRenamedCopiesAttrsSlice(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}})
	s := r.Renamed("S")
	// In-place schema mutation of the renamed relation must not alias the
	// receiver's schema (regression: Renamed used to share the Attrs slice).
	s.Attrs[0] = "x"
	if r.Attrs[0] != "a" {
		t.Fatalf("renaming aliased the schema: %v", r.Attrs)
	}
	if s.Tuple(0)[0] != 1 {
		t.Fatal("renamed relation lost data")
	}
}

// TestEncodeGoldenBytes pins the wire format: the bytes below were captured
// from relation.Encode before the row-major store was removed, and both
// constructors must keep producing exactly them.
func TestEncodeGoldenBytes(t *testing.T) {
	golden := []byte{
		0xad, 0x1, 0x52, 0x2, 0x1, 0x61, 0x2, 0x62, 0x62, 0x6, 0x4, 0x2, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x4, 0x0, 0x0, 0x0, 0x52, 0x2, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x88,
		0x20, 0x2, 0x0, 0x11, 0x2, 0x4, 0x0, 0x0, 0x0, 0x5, 0x0, 0x0, 0x0, 0xe, 0x0, 0x0,
		0x0, 0x0, 0x2, 0x0, 0x0, 0xed, 0xff, 0xff, 0xff, 0xff, 0x1, 0x0, 0x0, 0x4, 0x6, 0x1,
		0x15, 0x0, 0x0,
	}
	attrs := []string{"a", "bb"}
	fromTuples := FromTuples("R", attrs, [][]Value{{1, 2}, {1, 5}, {3, 4}, {300, -7}, {300, 1 << 40}, {70000, 9}})
	fromColumns := FromColumns("R", attrs, [][]Value{{1, 1, 3, 300, 300, 70000}, {2, 5, 4, -7, 1 << 40, 9}})
	for name, r := range map[string]*Relation{"FromTuples": fromTuples, "FromColumns": fromColumns} {
		if got := Encode(r); !bytes.Equal(got, golden) {
			t.Errorf("%s: wire bytes moved:\n got %#v\nwant %#v", name, got, golden)
		}
	}
	if got, want := Encode(New("E", "x")), []byte{0xad, 0x1, 0x45, 0x1, 0x1, 0x78, 0x0}; !bytes.Equal(got, want) {
		t.Errorf("empty relation: got %#v want %#v", got, want)
	}
	if a, b := Fingerprint(fromTuples), Fingerprint(fromColumns); a != b || a != 13793384967671187867 {
		t.Errorf("fingerprints %d, %d: want 13793384967671187867 for both", a, b)
	}
}

// TestRenamedAliasMutationStaysConsistent: Renamed shares column contents,
// so after a sibling sorts in place the original reads the sorted values —
// through Column and Tuple alike.
func TestRenamedAliasMutationStaysConsistent(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{3, 30}, {1, 10}, {2, 20}})
	s := r.Renamed("S")
	s.Sort() // mutates the shared columns in place
	wantCol0 := []Value{1, 2, 3}
	got := r.Column(0)
	for i := range wantCol0 {
		if got[i] != wantCol0[i] {
			t.Fatalf("sibling sort not visible through the original: col0=%v", got)
		}
	}
	if r.Tuple(0)[0] != 1 || s.Tuple(0)[0] != 1 {
		t.Fatalf("shared backing not sorted: r=%v s=%v", r.Tuple(0), s.Tuple(0))
	}

	// Unary relations sort their one column directly; still in place.
	c := FromColumns("C", []string{"a"}, [][]Value{{3, 1, 2}})
	cs := c.Renamed("CS")
	cs.Sort()
	if v := c.Column(0); v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("columnar sibling sort not visible through alias: %v", v)
	}
}

// TestRenamedColumnarAliasHeaderIsolation: length-changing operations on a
// Renamed sibling must not change the original's row count — the
// outer column-header slice is private per alias even though the column
// contents are shared.
func TestRenamedColumnarAliasHeaderIsolation(t *testing.T) {
	r := FromColumns("R", []string{"a", "b"}, [][]Value{{1, 2}, {10, 20}})
	s := r.Renamed("S")
	s.AppendAll(FromColumns("X", []string{"a", "b"}, [][]Value{{3}, {30}}))
	if r.Len() != 2 {
		t.Fatalf("append through renamed alias changed original's length: %d", r.Len())
	}
	if s.Len() != 3 {
		t.Fatalf("alias append lost rows: %d", s.Len())
	}
	// Shared content still mutates through either alias (documented).
	s2 := r.Renamed("S2")
	s2.Columns()[0][0] = 7
	if r.Column(0)[0] != 7 {
		t.Fatal("column contents should remain shared")
	}
}

// TestConcurrentReadersShareRelation: no reading method writes the
// receiver, so goroutines may share one relation without synchronization.
// Run under -race.
func TestConcurrentReadersShareRelation(t *testing.T) {
	attrs := []string{"a", "b"}
	shared := map[string]*Relation{
		"FromTuples":  FromTuples("R", attrs, [][]Value{{1, 10}, {2, 20}, {3, 30}}),
		"FromColumns": FromColumns("R", attrs, [][]Value{{1, 2, 3}, {10, 20, 30}}),
		"FromEdges":   FromEdges("R", "a", "b", [][2]Value{{1, 10}, {2, 20}, {3, 30}}),
	}
	want := FromTuples("W", attrs, [][]Value{{1, 10}, {2, 20}, {3, 30}})
	wantFP := Fingerprint(want)
	for name, r := range shared {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 50; iter++ {
					if tup := r.Tuple(1); tup[0] != 2 || tup[1] != 20 {
						t.Errorf("%s: Tuple(1) = %v", name, tup)
					}
					if cols := r.Columns(); len(cols) != 2 || cols[1][2] != 30 {
						t.Errorf("%s: Columns() = %v", name, cols)
					}
					if col := r.Column(1); col[0] != 10 {
						t.Errorf("%s: Column(1) = %v", name, col)
					}
					if !r.Equal(want) || !want.Equal(r) {
						t.Errorf("%s: not Equal to its content", name)
					}
					if Fingerprint(r) != wantFP {
						t.Errorf("%s: fingerprint differs", name)
					}
					if s := r.Renamed("S"); s.Len() != 3 || s.Tuple(0)[1] != 10 {
						t.Errorf("%s: Renamed = %v", name, s)
					}
				}
			}()
		}
		wg.Wait()
	}
}
