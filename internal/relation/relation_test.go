package relation

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewAndAppend(t *testing.T) {
	r := New("R", "a", "b")
	if r.Arity() != 2 || r.Len() != 0 {
		t.Fatalf("empty relation: arity=%d len=%d", r.Arity(), r.Len())
	}
	r.Append(1, 2)
	r.Append(3, 4)
	if r.Len() != 2 {
		t.Fatalf("len=%d want 2", r.Len())
	}
	if got := r.Tuple(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("tuple(1)=%v", got)
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	New("R", "a", "b").Append(1)
}

func TestSortDedup(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{
		{3, 1}, {1, 2}, {3, 1}, {1, 1}, {2, 9}, {1, 2},
	})
	r.SortDedup()
	want := [][]Value{{1, 1}, {1, 2}, {2, 9}, {3, 1}}
	if r.Len() != len(want) {
		t.Fatalf("len=%d want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if !reflect.DeepEqual([]Value(r.Tuple(i)), w) {
			t.Errorf("tuple %d = %v want %v", i, r.Tuple(i), w)
		}
	}
}

// randRows draws n rows of the given arity over [0, dom).
func randRows(rng *rand.Rand, arity, n int, dom int64) [][]Value {
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = make([]Value, arity)
		for j := range rows[i] {
			rows[i][j] = rng.Int63n(dom)
		}
	}
	return rows
}

func attrNames(arity int) []string {
	return []string{"a", "b", "c", "d"}[:arity]
}

// sortedRows is the brute-force expectation for SortByColumns: a copy of
// rows ordered by the listed columns first, then the rest in schema order.
func sortedRows(rows [][]Value, order []int) [][]Value {
	arity := 0
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	full := append([]int(nil), order...)
	for c := 0; c < arity; c++ {
		if !slices.Contains(order, c) {
			full = append(full, c)
		}
	}
	out := slices.Clone(rows)
	sort.SliceStable(out, func(x, y int) bool {
		for _, c := range full {
			if out[x][c] != out[y][c] {
				return out[x][c] < out[y][c]
			}
		}
		return false
	})
	return out
}

// Sort and SortByColumns against the brute-force row sort, on every arity
// (arity 1 takes the direct column sort) and both constructors.
func TestSortProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(4)
		rows := randRows(rng, arity, int(nRaw%120), 5)
		attrs := attrNames(arity)
		order := rng.Perm(arity)[:rng.Intn(arity+1)]
		r := FromTuples("R", attrs, rows)
		if !r.Clone().Sort().Equal(FromTuples("R", attrs, sortedRows(rows, nil))) {
			return false
		}
		return r.SortByColumns(order).Equal(FromTuples("R", attrs, sortedRows(rows, order)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// SortDedup against the brute-force expectation: the sorted distinct rows.
func TestDedupProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(4)
		rows := randRows(rng, arity, int(nRaw%120), 4) // small domain forces duplicates
		want := slices.CompactFunc(sortedRows(rows, nil), func(a, b []Value) bool { return slices.Equal(a, b) })
		got := FromTuples("R", attrNames(arity), rows).SortDedup()
		return got.Equal(FromTuples("R", attrNames(arity), want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectSetSemantics(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {1, 3}, {2, 2}})
	p := r.Project("a")
	if p.Len() != 2 {
		t.Fatalf("project(a) len=%d want 2", p.Len())
	}
	if p.Tuple(0)[0] != 1 || p.Tuple(1)[0] != 2 {
		t.Fatalf("project values wrong: %v", p)
	}
	// Reordered projection.
	pr := r.Project("b", "a")
	if !reflect.DeepEqual(pr.Attrs, []string{"b", "a"}) {
		t.Fatalf("schema %v", pr.Attrs)
	}
	if pr.Len() != 3 {
		t.Fatalf("project(b,a) len=%d want 3", pr.Len())
	}
}

func TestProjectMissingAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("R", "a").Project("zz")
}

// Project against the brute-force expectation: the sorted distinct rows of
// the picked columns, in the picked order.
func TestProjectProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(4)
		rows := randRows(rng, arity, int(nRaw%100), 4)
		pick := rng.Perm(arity)[:1+rng.Intn(arity)]
		attrs := attrNames(arity)
		var pickAttrs []string
		for _, c := range pick {
			pickAttrs = append(pickAttrs, attrs[c])
		}
		bag := make([][]Value, len(rows))
		for i, row := range rows {
			for _, c := range pick {
				bag[i] = append(bag[i], row[c])
			}
		}
		r := FromTuples("R", attrs, rows)
		if !r.ProjectMulti(pickAttrs...).Equal(FromTuples("R", pickAttrs, bag)) {
			return false
		}
		set := slices.CompactFunc(sortedRows(bag, nil), func(a, b []Value) bool { return slices.Equal(a, b) })
		return r.Project(pickAttrs...).Equal(FromTuples("R", pickAttrs, set))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectAndDistinct(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {1, 3}, {2, 2}})
	d := r.Distinct("b")
	if !reflect.DeepEqual(d, []Value{2, 3}) {
		t.Fatalf("distinct=%v", d)
	}
}

func TestSemijoin(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {2, 3}, {3, 4}})
	s := FromTuples("S", []string{"b", "c"}, [][]Value{{2, 9}, {4, 9}})
	out := r.Semijoin(s, []string{"b"})
	if out.Len() != 2 {
		t.Fatalf("semijoin len=%d want 2", out.Len())
	}
	if out.Tuple(0)[1] != 2 || out.Tuple(1)[1] != 4 {
		t.Fatalf("semijoin tuples wrong: %v", out)
	}
}

// Semijoin against the brute-force expectation: the rows of r, in order,
// that agree with some row of s on the shared attributes.
func TestSemijoinProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rRows := randRows(rng, 3, rng.Intn(60), 6)
		sRows := randRows(rng, 3, rng.Intn(60), 6)
		r := FromTuples("R", []string{"a", "b", "c"}, rRows)
		s := FromTuples("S", []string{"c", "x", "b"}, sRows)
		var want [][]Value
		for _, rr := range rRows {
			for _, sr := range sRows {
				if rr[1] == sr[2] && rr[2] == sr[0] {
					want = append(want, rr)
					break
				}
			}
		}
		return r.Semijoin(s, []string{"b", "c"}).Equal(FromTuples("R", r.Attrs, want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHashJoinBasic(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {2, 3}})
	s := FromTuples("S", []string{"b", "c"}, [][]Value{{2, 7}, {2, 8}, {3, 9}})
	j := HashJoin(r, s)
	j.SortDedup()
	want := [][]Value{{1, 2, 7}, {1, 2, 8}, {2, 3, 9}}
	if j.Len() != len(want) {
		t.Fatalf("join len=%d want %d: %v", j.Len(), len(want), j)
	}
	for i, w := range want {
		if !reflect.DeepEqual([]Value(j.Tuple(i)), w) {
			t.Errorf("tuple %d = %v want %v", i, j.Tuple(i), w)
		}
	}
	if !reflect.DeepEqual(j.Attrs, []string{"a", "b", "c"}) {
		t.Fatalf("schema=%v", j.Attrs)
	}
}

func TestHashJoinNoSharedAttrsIsCross(t *testing.T) {
	r := FromTuples("R", []string{"a"}, [][]Value{{1}, {2}})
	s := FromTuples("S", []string{"b"}, [][]Value{{7}, {8}, {9}})
	j := HashJoin(r, s)
	if j.Len() != 6 {
		t.Fatalf("cross product len=%d want 6", j.Len())
	}
}

func TestHashJoinEmpty(t *testing.T) {
	r := New("R", "a", "b")
	s := FromTuples("S", []string{"b", "c"}, [][]Value{{2, 7}})
	if HashJoin(r, s).Len() != 0 || HashJoin(s, r).Len() != 0 {
		t.Fatal("join with empty must be empty")
	}
}

// HashJoin must agree with NaiveJoin on random inputs, tuple for tuple,
// whichever side is smaller (the build side).
func TestHashJoinMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRel(rng, "R", []string{"a", "b"}, rng.Intn(60), 8)
		s := randRel(rng, "S", []string{"b", "c"}, rng.Intn(60), 8)
		got := HashJoin(r, s).SortDedup()
		want := NaiveJoin([]*Relation{r, s}, []string{"a", "b", "c"})
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// PartitionBy against the brute-force placement: row i goes to the bucket
// HashValue (one key column) or HashTuple (several) names, and every
// partition keeps its rows in input order.
func TestPartitionBy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 80; iter++ {
		arity := 1 + rng.Intn(3)
		parts := 1 + rng.Intn(7)
		rows := randRows(rng, arity, rng.Intn(300), 1000)
		key := rng.Perm(arity)[:1+rng.Intn(arity)]
		want := make([][][]Value, parts)
		for _, row := range rows {
			var p int
			if len(key) == 1 {
				p = HashValue(row[key[0]], parts)
			} else {
				kv := make([]Value, len(key))
				for j, c := range key {
					kv[j] = row[c]
				}
				p = HashTuple(kv, parts)
			}
			want[p] = append(want[p], row)
		}
		got := FromTuples("R", attrNames(arity), rows).PartitionBy(key, parts)
		if len(got) != parts {
			t.Fatalf("iter %d: %d partitions, want %d", iter, len(got), parts)
		}
		for p := range got {
			if !got[p].Equal(FromTuples("R", attrNames(arity), want[p])) {
				t.Fatalf("iter %d: partition %d on key %v:\n%v\nwant rows %v", iter, p, key, got[p], want[p])
			}
		}

		// Stable: with the row number as one more column (equal rows can no
		// longer stand in for each other), every part's numbers ascend.
		numbered := FromTuples("R", attrNames(arity), rows)
		numbered.Attrs = append(numbered.Attrs, "row")
		rowNo := make([]Value, len(rows))
		for i := range rowNo {
			rowNo[i] = Value(i)
		}
		numbered.SetColumns(append(numbered.Columns(), rowNo))
		parted := numbered.PartitionBy(key, parts)
		for p, part := range parted {
			if !slices.IsSorted(part.Column(arity)) {
				t.Fatalf("iter %d: partition %d on key %v does not keep input order: rows %v", iter, p, key, part.Column(arity))
			}
		}
		// Capped: the parts share one backing per column, and appending to
		// one of them must reallocate, never run into the next part's rows.
		before := make([]*Relation, parts)
		for p, part := range parted {
			before[p] = part.Clone()
		}
		for p, part := range parted {
			part.AppendTuple(slices.Repeat([]Value{-1}, arity+1))
			for o, other := range parted {
				if o != p && !other.Equal(before[o]) {
					t.Fatalf("iter %d: appending a row to partition %d changed partition %d", iter, p, o)
				}
			}
			before[p] = part.Clone()
		}
	}
}

func TestHashValueRangeAndSpread(t *testing.T) {
	counts := make([]int, 8)
	for v := Value(0); v < 8000; v++ {
		h := HashValue(v, 8)
		if h < 0 || h >= 8 {
			t.Fatalf("hash out of range: %d", h)
		}
		counts[h]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("bucket %d badly skewed: %d/8000", i, c)
		}
	}
	if HashValue(123, 1) != 0 {
		t.Fatal("parts=1 must map to 0")
	}
}

// HashTuple on the keys a multi-column partition actually sees: dense ids
// paired with a neighbour, with a low-entropy column, negative and past
// 2³². Every bucket is in range, no bucket holds more than 1.15× the mean
// at any parts (power of two or not), and swapping the columns moves most
// tuples — the hash reads the values in order.
func TestHashTupleRangeAndSpread(t *testing.T) {
	const n = 48000
	grids := []struct {
		name string
		row  func(i int) []Value
	}{
		{"(i,i+1)", func(i int) []Value { return []Value{Value(i), Value(i + 1)} }},
		{"(i,i%97)", func(i int) []Value { return []Value{Value(i), Value(i % 97)} }},
		{"(i%97,i)", func(i int) []Value { return []Value{Value(i % 97), Value(i)} }},
		{"(-i,i<<33)", func(i int) []Value { return []Value{Value(-i), Value(i) << 33} }},
		{"(i,i+1,i%97)", func(i int) []Value { return []Value{Value(i), Value(i + 1), Value(i % 97)} }},
		{"(i%13,i%97,i)", func(i int) []Value { return []Value{Value(i % 13), Value(i % 97), Value(i)} }},
		{"(i<<32,-i,7)", func(i int) []Value { return []Value{Value(i) << 32, Value(-i), 7} }},
	}
	for _, g := range grids {
		for _, parts := range []int{2, 3, 4, 7, 16} {
			counts := make([]int, parts)
			moved := 0
			for i := 1; i <= n; i++ {
				row := g.row(i)
				h := HashTuple(row, parts)
				if h < 0 || h >= parts {
					t.Fatalf("%s: HashTuple(%v, %d) = %d, out of range", g.name, row, parts, h)
				}
				counts[h]++
				row[0], row[1] = row[1], row[0]
				if HashTuple(row, parts) != h {
					moved++
				}
			}
			if worst := float64(slices.Max(counts)) * float64(parts) / n; worst > 1.15 {
				t.Errorf("%s over %d parts: fullest bucket holds %.3f× the mean, want ≤ 1.15 (%v)", g.name, parts, worst, counts)
			}
			// Independent buckets for (a,b) and (b,a) differ on (parts−1)/parts of the inputs.
			if want := float64(n) * float64(parts-1) / float64(parts); float64(moved) < 0.9*want {
				t.Errorf("%s over %d parts: swapping the first two values moved %d of %d tuples, want about %.0f", g.name, parts, moved, n, want)
			}
		}
	}
	if HashTuple([]Value{1, 2}, 1) != 0 {
		t.Fatal("parts=1 must map to 0")
	}
}

func TestIntersectSorted(t *testing.T) {
	a := []Value{1, 3, 5, 7}
	b := []Value{2, 3, 5, 8}
	got := IntersectSorted(a, b)
	if !reflect.DeepEqual(got, []Value{3, 5}) {
		t.Fatalf("intersect=%v", got)
	}
	if IntersectAllSorted([][]Value{a, b, {5}}) == nil {
		t.Fatal("triple intersection should be {5}")
	}
	if got := IntersectAllSorted([][]Value{a, {9}}); len(got) != 0 {
		t.Fatalf("empty intersection got %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := FromTuples("R", []string{"a"}, [][]Value{{1}})
	c := r.Clone()
	c.Append(2)
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone must be independent")
	}
}

func TestRenamedSharesData(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}})
	s := r.Renamed("S")
	s.Attrs = []string{"x", "y"}
	if s.Len() != 1 || s.Tuple(0)[0] != 1 {
		t.Fatal("renamed relation lost data")
	}
	if r.Attrs[0] != "a" {
		t.Fatal("renaming must not affect original schema")
	}
}

func TestSortByColumns(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{2, 1}, {1, 2}, {2, 0}})
	r.SortByColumns([]int{1})
	// Sorted by b first.
	bs := []Value{r.Tuple(0)[1], r.Tuple(1)[1], r.Tuple(2)[1]}
	if !sort.SliceIsSorted(bs, func(i, j int) bool { return bs[i] < bs[j] }) {
		t.Fatalf("not sorted by column b: %v", bs)
	}
}

func randRel(rng *rand.Rand, name string, attrs []string, n int, dom int64) *Relation {
	r := New(name, attrs...)
	for i := 0; i < n; i++ {
		row := make([]Value, len(attrs))
		for j := range row {
			row[j] = rng.Int63n(dom)
		}
		r.AppendTuple(row)
	}
	return r.SortDedup()
}
