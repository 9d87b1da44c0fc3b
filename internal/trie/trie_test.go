package trie

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"adj/internal/relation"
)

func mkRel(attrs []string, rows [][]Value) *relation.Relation {
	return relation.FromTuples("R", attrs, rows)
}

func TestBuildAndEnumerateRoundtrip(t *testing.T) {
	r := mkRel([]string{"a", "b"}, [][]Value{{2, 1}, {1, 2}, {1, 1}, {2, 1}})
	tr := Build(r, []string{"a", "b"})
	if tr.Len() != 3 {
		t.Fatalf("tuples=%d want 3 (dedup)", tr.Len())
	}
	var got [][]Value
	tr.Enumerate(func(tp relation.Tuple) {
		got = append(got, append([]Value(nil), tp...))
	})
	want := [][]Value{{1, 1}, {1, 2}, {2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("enumerate=%v want %v", got, want)
	}
}

func TestBuildPermutedOrder(t *testing.T) {
	r := mkRel([]string{"a", "b"}, [][]Value{{1, 5}, {2, 4}})
	tr := Build(r, []string{"b", "a"})
	var got [][]Value
	tr.Enumerate(func(tp relation.Tuple) {
		got = append(got, append([]Value(nil), tp...))
	})
	want := [][]Value{{4, 2}, {5, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("permuted enumerate=%v want %v", got, want)
	}
}

// A relation's trie levels follow the global order whatever its column
// order, and the caller's schema slice is left untouched.
func TestAttrsInOrder(t *testing.T) {
	attrs := []string{"c", "a", "d"}
	got := AttrsInOrder(attrs, []string{"d", "b", "a", "c"})
	if want := []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AttrsInOrder = %v, want %v", got, want)
	}
	if want := []string{"c", "a", "d"}; !reflect.DeepEqual(attrs, want) {
		t.Fatalf("input rewritten to %v", attrs)
	}
}

func TestBuildBadOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-permutation order")
		}
	}()
	Build(mkRel([]string{"a", "b"}, nil), []string{"a", "z"})
}

func TestEmptyTrie(t *testing.T) {
	tr := Build(mkRel([]string{"a", "b"}, nil), []string{"a", "b"})
	if tr.Len() != 0 {
		t.Fatalf("len=%d", tr.Len())
	}
	count := 0
	tr.Enumerate(func(relation.Tuple) { count++ })
	if count != 0 {
		t.Fatal("empty trie enumerated tuples")
	}
	it := NewIterator(tr)
	it.Open()
	if !it.AtEnd() {
		t.Fatal("iterator over empty trie must be at end")
	}
}

// Property: enumerate(Build(R)) == sorted(dedup(R)) for random R.
func TestRoundtripProperty(t *testing.T) {
	f := func(seed int64, arityRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := int(arityRaw%3) + 1
		n := int(nRaw % 80)
		attrs := []string{"a", "b", "c"}[:arity]
		r := relation.New("R", attrs...)
		for i := 0; i < n; i++ {
			row := make([]Value, arity)
			for j := range row {
				row[j] = rng.Int63n(6)
			}
			r.AppendTuple(row)
		}
		tr := Build(r, attrs)
		back := tr.ToRelation("back")
		want := r.Clone().SortDedup()
		want.Name = "back"
		return back.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorSeekSemantics(t *testing.T) {
	r := mkRel([]string{"a"}, [][]Value{{1}, {3}, {5}, {9}})
	tr := Build(r, []string{"a"})
	it := NewIterator(tr)
	it.Open()
	it.Seek(4)
	if it.AtEnd() || it.Key() != 5 {
		t.Fatalf("seek(4) -> %v", it.Key())
	}
	it.Seek(5)
	if it.Key() != 5 {
		t.Fatal("seek to current key must not move")
	}
	it.Seek(10)
	if !it.AtEnd() {
		t.Fatal("seek past end must be AtEnd")
	}
}

func TestIteratorDescend(t *testing.T) {
	r := mkRel([]string{"a", "b"}, [][]Value{{1, 4}, {1, 7}, {2, 5}})
	tr := Build(r, []string{"a", "b"})
	it := NewIterator(tr)
	it.Open() // level a
	if it.Key() != 1 {
		t.Fatalf("first a=%d", it.Key())
	}
	it.Open() // level b under a=1
	var bs []Value
	for !it.AtEnd() {
		bs = append(bs, it.Key())
		it.Next()
	}
	if !reflect.DeepEqual(bs, []Value{4, 7}) {
		t.Fatalf("children of a=1: %v", bs)
	}
	it.Up()
	it.Next()
	if it.Key() != 2 {
		t.Fatalf("after up+next a=%d", it.Key())
	}
	it.Open()
	if it.Key() != 5 {
		t.Fatalf("children of a=2 start at %d", it.Key())
	}
}

// Property: Seek lands on the first value >= target within the sibling range.
func TestSeekProperty(t *testing.T) {
	f := func(seed int64, targetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		r := relation.New("R", "a")
		for i := 0; i < n; i++ {
			r.Append(rng.Int63n(50))
		}
		tr := Build(r, []string{"a"})
		vals := tr.Levels[0].Vals
		target := Value(targetRaw % 60)
		it := NewIterator(tr)
		it.Open()
		it.Seek(target)
		// Expected: first val >= target.
		for _, v := range vals {
			if v >= target {
				return !it.AtEnd() && it.Key() == v
			}
		}
		return it.AtEnd()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTwoTries(t *testing.T) {
	r1 := mkRel([]string{"a", "b"}, [][]Value{{1, 2}, {3, 4}})
	r2 := mkRel([]string{"a", "b"}, [][]Value{{1, 2}, {2, 9}})
	m := Merge([]*Trie{Build(r1, []string{"a", "b"}), Build(r2, []string{"a", "b"})})
	got := m.ToRelation("m")
	want := relation.FromTuples("m", []string{"a", "b"}, [][]Value{{1, 2}, {2, 9}, {3, 4}})
	if !got.Equal(want) {
		t.Fatalf("merge=%v", got)
	}
}

// Property: Merge(block tries) == trie of concatenated blocks.
func TestMergeProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%4) + 1
		all := relation.New("all", "a", "b")
		var ts []*Trie
		for b := 0; b < k; b++ {
			blk := relation.New("blk", "a", "b")
			n := rng.Intn(30)
			for i := 0; i < n; i++ {
				x, y := rng.Int63n(8), rng.Int63n(8)
				blk.Append(x, y)
				all.Append(x, y)
			}
			ts = append(ts, Build(blk, []string{"a", "b"}))
		}
		merged := Merge(ts).ToRelation("m")
		want := Build(all, []string{"a", "b"}).ToRelation("m")
		return merged.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEmptyAndSingle(t *testing.T) {
	if Merge(nil).Len() != 0 {
		t.Fatal("merge of nothing must be empty")
	}
	tr := Build(mkRel([]string{"a"}, [][]Value{{1}}), []string{"a"})
	if Merge([]*Trie{tr}).Len() != 1 {
		t.Fatal("merge of single trie must be itself")
	}
}

func TestCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := relation.New("R", "x", "y", "z")
	for i := 0; i < 200; i++ {
		r.Append(rng.Int63n(20), rng.Int63n(20), rng.Int63n(20))
	}
	tr := Build(r, []string{"x", "y", "z"})
	buf := AppendEncode(nil, tr)
	back, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !back.ToRelation("b").Equal(tr.ToRelation("b")) {
		t.Fatal("codec roundtrip mismatch")
	}
	if !reflect.DeepEqual(back.Attrs, tr.Attrs) {
		t.Fatalf("attrs mismatch: %v vs %v", back.Attrs, tr.Attrs)
	}
	// Appending keeps what dst holds: a reused buffer carries no state.
	again := AppendEncode(append(buf[:0:0], "xyz"...), tr)
	if string(again[:3]) != "xyz" || string(again[3:]) != string(buf) {
		t.Fatal("AppendEncode onto a non-empty buffer differs from a fresh encoding")
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	tr := Build(mkRel([]string{"a", "b"}, [][]Value{{1, 2}}), []string{"a", "b"})
	buf := AppendEncode(nil, tr)
	for _, cut := range []int{1, len(buf) / 2, len(buf) - 1} {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes should fail", cut, len(buf))
		}
	}
	if _, err := Decode(append(buf, 0)); err == nil {
		t.Fatal("decode with trailing bytes should fail")
	}
}

func TestCodecPropertyRoundtrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := relation.New("R", "a", "b")
		for i := 0; i < int(nRaw%60); i++ {
			r.Append(rng.Int63n(9), rng.Int63n(9))
		}
		tr := Build(r, []string{"a", "b"})
		back, err := Decode(AppendEncode(nil, tr))
		if err != nil {
			return false
		}
		return back.ToRelation("x").Equal(tr.ToRelation("x"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// A payload that decodes to anything but a trie a builder could have
// produced must fail at decode time — over a transport that is a retryable
// corrupt-payload error — not panic, or answer wrongly, at join time.
func TestCodecRejectsOutOfRangeStarts(t *testing.T) {
	good := Build(mkRel([]string{"a", "b"}, [][]Value{{1, 2}, {3, 4}, {3, 6}}), []string{"a", "b"})
	root, leaves := good.Levels[0], good.Levels[1] // [1 3] / [2 | 4 6], starts [0 1 3]
	for _, c := range []struct {
		name   string
		tuples int
		levels []Level
	}{
		{"starts beyond the value array", 3, []Level{{Vals: root.Vals, Starts: []int32{0, 99}}, leaves}},
		{"descending starts", 3, []Level{root, {Vals: leaves.Vals, Starts: []int32{2, 0, 3}}}},
		// One start short: Iterator.Open on the second parent read past the
		// array ("index out of range [2] with length 2").
		{"a start short of parents+1", 3, []Level{root, {Vals: leaves.Vals, Starts: []int32{0, 1}}}},
		{"a start too many", 3, []Level{root, {Vals: leaves.Vals, Starts: []int32{0, 1, 2, 3}}}},
		{"root with three starts", 3, []Level{{Vals: root.Vals, Starts: []int32{0, 1, 2}}, leaves}},
		{"first start not 0", 3, []Level{root, {Vals: leaves.Vals, Starts: []int32{1, 2, 3}}}},
		{"terminator short of the values", 3, []Level{root, {Vals: leaves.Vals, Starts: []int32{0, 1, 2}}}},
		{"a parent without children", 3, []Level{root, {Vals: leaves.Vals, Starts: []int32{0, 0, 3}}}},
		// A descending root decoded silently: wrong answers from every seek.
		{"descending root values", 3, []Level{{Vals: []Value{3, 1}, Starts: root.Starts}, leaves}},
		{"descending sibling values", 3, []Level{root, {Vals: []Value{2, 6, 4}, Starts: leaves.Starts}}},
		{"repeated sibling value", 3, []Level{root, {Vals: []Value{2, 4, 4}, Starts: leaves.Starts}}},
		{"tuple count not the leaf count", 1 << 40, []Level{root, leaves}},
	} {
		bogus := &Trie{Attrs: good.Attrs, NumTuples: c.tuples, Levels: c.levels}
		if _, err := Decode(AppendEncode(nil, bogus)); err == nil {
			t.Errorf("decode accepted a trie with %s", c.name)
		}
	}
	// Ascending across siblings is not required, only within them.
	if _, err := Decode(AppendEncode(nil, good)); err != nil {
		t.Fatalf("decode rejected a built trie: %v", err)
	}
	for _, empty := range []*Trie{
		Build(mkRel([]string{"a", "b"}, nil), []string{"a", "b"}),
		Build(mkRel([]string{"a"}, nil), []string{"a"}),
		Merge(nil),
	} {
		if _, err := Decode(AppendEncode(nil, empty)); err != nil {
			t.Fatalf("decode rejected the empty %v: %v", empty, err)
		}
	}
}

// rootSeek is a seek for v from cursor `from` that trusts the directory:
// start at Floor(v) when that is ahead, then scan. It equals the lower bound
// exactly when Floor never passes it.
func rootSeek(t *Trie, from int, v Value) int {
	root := t.Levels[0].Vals
	if lo := t.Root.Floor(v); lo > from {
		from = lo
	}
	for from < len(root) && root[from] < v {
		from++
	}
	return from
}

// The root directory is exact — a seek entering through it lands where a
// binary search over the whole level does, for every probe around every
// value and every cursor — whatever the values' spread, and the same
// directory comes out of every way a level 0 is built.
func TestRootDirectoryExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	draw := func(n int, lo Value, span int64) []Value {
		seen := make(map[Value]bool, n)
		for len(seen) < n {
			seen[lo+rng.Int63n(span)] = true
		}
		out := make([]Value, 0, n)
		for v := range seen {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	roots := map[string][]Value{
		"dense":            draw(300, 100, 330),
		"sparse":           draw(300, 0, 1<<45),
		"all-negative":     draw(120, -1<<50, 1<<49),
		"one-far-outlier":  append(draw(99, 0, 150), 1<<55),
		"int64-extremes":   {math.MinInt64, math.MaxInt64},
		"extremes-and-mid": append(append([]Value{math.MinInt64}, draw(80, -500, 1000)...), math.MaxInt64),
	}
	for _, n := range []int{minDirectoryRoot - 1, minDirectoryRoot, minDirectoryRoot + 1} {
		roots[fmt.Sprintf("cut-off/%d", n)] = draw(n, -40, 400)
	}
	for name, root := range roots {
		rows := make([][]Value, 0, 2*len(root))
		for _, v := range root {
			rows = append(rows, []Value{v, 1}, []Value{v, 2})
		}
		attrs := []string{"a", "b"}
		built := Build(mkRel(attrs, rows), attrs)
		if got, want := len(built.Root.idx) > 0, len(root) >= minDirectoryRoot; got != want {
			t.Fatalf("%s (%d values): directory present = %v", name, len(root), got)
		}
		if len(built.Root.idx) > 2*len(root) {
			t.Fatalf("%s: %d buckets for %d values, more than two per value", name, len(built.Root.idx), len(root))
		}
		if built.MemBytes() != (&Trie{Attrs: built.Attrs, Levels: built.Levels}).MemBytes()+4*int64(len(built.Root.idx)) {
			t.Fatalf("%s: MemBytes does not count the directory", name)
		}
		var probes []Value
		for _, v := range root {
			probes = append(probes, v)
			if v > math.MinInt64 {
				probes = append(probes, v-1)
			}
			if v < math.MaxInt64 {
				probes = append(probes, v+1)
			}
		}
		for _, v := range probes {
			bound := sort.Search(len(root), func(i int) bool { return root[i] >= v })
			for from := 0; from <= len(root); from++ {
				want := bound
				if from > want {
					want = from
				}
				if got := rootSeek(built, from, v); got != want {
					t.Fatalf("%s: seek %d from %d = %d, search says %d", name, v, from, got, want)
				}
			}
		}
		// Every construction path indexes the same level the same way, and
		// a value copy (how a warm execution re-skins a stored trie)
		// carries it.
		half := len(rows) / 2
		decoded, err := Decode(AppendEncode(nil, built))
		if err != nil {
			t.Fatal(err)
		}
		skinned := *built
		skinned.Attrs = []string{"x", "y"}
		for how, other := range map[string]*Trie{
			"FromSorted": FromSorted(mkRel(attrs, rows)),
			"Merge":      Merge([]*Trie{Build(mkRel(attrs, rows[:half+1]), attrs), Build(mkRel(attrs, rows[half:]), attrs)}),
			"Decode":     decoded,
			"value copy": &skinned,
		} {
			if !reflect.DeepEqual(other.Root, built.Root) {
				t.Fatalf("%s: %s built another directory than Build", name, how)
			}
		}
	}
}

func TestTrieShape(t *testing.T) {
	// Shared prefixes must be stored once.
	r := mkRel([]string{"a", "b"}, [][]Value{{1, 1}, {1, 2}, {1, 3}, {2, 1}})
	tr := Build(r, []string{"a", "b"})
	if len(tr.Levels[0].Vals) != 2 {
		t.Fatalf("level0 vals=%v want [1 2]", tr.Levels[0].Vals)
	}
	if len(tr.Levels[1].Vals) != 4 {
		t.Fatalf("level1 vals=%v", tr.Levels[1].Vals)
	}
	if got := tr.Children(1, 0); !reflect.DeepEqual(got, []Value{1, 2, 3}) {
		t.Fatalf("children of a=1: %v", got)
	}
	if got := tr.Children(1, 1); !reflect.DeepEqual(got, []Value{1}) {
		t.Fatalf("children of a=2: %v", got)
	}
}
