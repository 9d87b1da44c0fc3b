package relation

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCodecRoundtripBasic(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {3, -4}, {1 << 40, -(1 << 50)}})
	back, err := Decode(Encode(r))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Fatalf("roundtrip mismatch:\n%v\n%v", back, r)
	}
}

func TestCodecRoundtripEmpty(t *testing.T) {
	for _, r := range []*Relation{
		New("empty", "a", "b"),
		New("noattrs"),
	} {
		back, err := Decode(Encode(r))
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if !back.Equal(r) {
			t.Fatalf("%s: roundtrip mismatch", r.Name)
		}
	}
}

func TestCodecRoundtripSingleTuple(t *testing.T) {
	r := FromTuples("one", []string{"x", "y", "z"}, [][]Value{{-9, 0, 1 << 62}})
	back, err := Decode(Encode(r))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Fatal("single-tuple roundtrip mismatch")
	}
}

func TestCodecProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%4) + 1
		attrs := []string{"a", "b", "c", "d"}[:k]
		r := New("R", attrs...)
		row := make([]Value, k)
		for i := 0; i < int(nRaw%100); i++ {
			for j := range row {
				row[j] = rng.Int63() - rng.Int63()
			}
			r.AppendTuple(row)
		}
		back, err := Decode(Encode(r))
		return err == nil && back.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsTruncatedAndGarbage(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{100, 200}, {300, 400}})
	buf := Encode(r)
	for _, cut := range []int{0, 1, len(buf) / 2, len(buf) - 1} {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes should fail", cut, len(buf))
		}
	}
	if _, err := Decode(append(append([]byte(nil), buf...), 7)); err == nil {
		t.Fatal("trailing bytes should fail")
	}
	if _, err := Decode([]byte{0x00, 0x01, 0x02}); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestSortedRunsEncodeSmallerThanRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := New("E", "src", "dst")
	for i := 0; i < 5000; i++ {
		r.Append(rng.Int63n(20000), rng.Int63n(20000))
	}
	r.Sort()
	delta := len(Encode(r))
	raw := 8 * r.Arity() * r.Len() // fixed-width u64 values
	if delta*2 > raw {
		t.Fatalf("delta-varint %dB should be well under half of fixed-width %dB on sorted runs", delta, raw)
	}
}

func benchRelation(n int) *Relation {
	rng := rand.New(rand.NewSource(1))
	r := NewWithCapacity("E", n, "src", "dst")
	for i := 0; i < n; i++ {
		r.Append(rng.Int63n(int64(n/8+1)), rng.Int63n(int64(n/8+1)))
	}
	return r.Sort()
}

func BenchmarkEncode(b *testing.B) {
	r := benchRelation(20000)
	buf := make([]byte, 0, len(Encode(r)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], r)
	}
}

func BenchmarkDecode(b *testing.B) {
	r := benchRelation(20000)
	buf := Encode(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodecCorruptPayloadFuzz hammers the decoder with randomly corrupted
// and truncated payloads produced by the encoder. Decode must
// never panic or over-allocate; it either errors or returns a structurally
// consistent relation (corruption of value bytes can silently change
// values — that is the transport checksum's job, not the codec's).
func TestCodecCorruptPayloadFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		arity := 1 + rng.Intn(4)
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = string(rune('a' + i))
		}
		r := New("F", attrs...)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			row := make([]Value, arity)
			for j := range row {
				row[j] = Value(rng.Int63n(1<<30) - 1<<29)
			}
			r.AppendTuple(row)
		}
		buf := Encode(r)
		mut := append([]byte(nil), buf...)
		switch rng.Intn(3) {
		case 0: // single byte flip
			if len(mut) > 0 {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			mut = mut[:rng.Intn(len(mut)+1)]
		default: // flip then truncate
			if len(mut) > 0 {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
				mut = mut[:rng.Intn(len(mut)+1)]
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("iter %d: decoder panicked on corrupt payload: %v", iter, p)
				}
			}()
			dec, err := Decode(mut)
			if err != nil {
				return
			}
			checkDecodedShape(t, dec)
		}()
	}
}

// checkDecodedShape asserts a successfully decoded relation is structurally
// consistent: plausible arity, one column per attribute, every column Len
// long, and under the decoder's value cap.
func checkDecodedShape(t testing.TB, dec *Relation) {
	t.Helper()
	if dec.Arity() > 64 {
		t.Fatalf("implausible arity %d accepted", dec.Arity())
	}
	if len(dec.Columns()) != dec.Arity() {
		t.Fatalf("%d columns for arity %d", len(dec.Columns()), dec.Arity())
	}
	for j, col := range dec.Columns() {
		if len(col) != dec.Len() {
			t.Fatalf("column %d holds %d values, Len is %d", j, len(col), dec.Len())
		}
	}
	if dec.Len()*dec.Arity() > 1<<28 {
		t.Fatalf("decoded %d values, past the 1<<28 cap", dec.Len()*dec.Arity())
	}
}

// FuzzDecodeInto fuzzes Decode: hostile bytes never panic the decoder or
// push it past its allocation cap, and whatever decodes re-encodes to bytes
// that decode to the same relation and encode to themselves. Encoder output (the seeds)
// re-encodes byte for byte; arbitrary accepted input need not, because the
// format admits padded varints and wider-than-needed delta runs.
func FuzzDecodeInto(f *testing.F) {
	seeds := [][]byte{
		Encode(New("empty", "a", "b")),
		Encode(New("noattrs")),
		Encode(FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {3, -4}, {1 << 40, -(1 << 50)}})),
		Encode(benchRelation(200)),
		AppendEncodeRange(nil, benchRelation(200), 50, 120),
	}
	for _, seed := range seeds {
		dec, err := Decode(seed)
		if err != nil {
			f.Fatal(err)
		}
		if again := Encode(dec); !bytes.Equal(again, seed) {
			f.Fatalf("encoder output does not re-encode to itself:\n in  %x\n out %x", seed, again)
		}
		f.Add(seed)
	}
	f.Add([]byte{codecMagic, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge count, no payload
	f.Add([]byte{codecMagic, 1, '0', 0, 0x30})                       // tuples without attributes
	f.Fuzz(func(t *testing.T, buf []byte) {
		dec, err := Decode(buf)
		if err != nil {
			return
		}
		checkDecodedShape(t, dec)
		enc := Encode(dec)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v\n in  %x\n enc %x", err, buf, enc)
		}
		if !again.Equal(dec) || again.Name != dec.Name {
			t.Fatalf("re-encoded payload decodes differently:\n in  %x\n enc %x", buf, enc)
		}
		if twice := Encode(again); !bytes.Equal(twice, enc) {
			t.Fatalf("canonical encoding is not a fixed point:\n enc   %x\n twice %x", enc, twice)
		}
	})
}

// FuzzDecodeAppend: a receiver folds chunks into a relation whose schema it
// chose. The reference is Decode of the same bytes: DecodeAppend accepts a
// chunk exactly when Decode accepts it and its attributes are the
// receiver's, and then appends exactly Decode's rows. Whatever the
// bytes it never panics, and a chunk it refuses leaves dst as it was —
// validation comes before the first write: no column has been grown, and
// spare capacity past dst's length still holds what it held.
// testdata/fuzz/FuzzDecodeAppend holds the two well-formed wrong-shape
// payloads that used to panic AppendAll, and a chunk whose last column's
// run passes the size walk but names an exception position out of range.
func FuzzDecodeAppend(f *testing.F) {
	base := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {3, -4}})
	for _, seed := range []*Relation{
		FromTuples("part", base.Attrs, [][]Value{{5, 6}, {1 << 40, 7}}),
		New("empty", base.Attrs...),
		FromTuples("narrow", []string{"a"}, [][]Value{{5}}),
		New("noattrs"),
	} {
		f.Add(Encode(seed))
	}
	chunked := benchRelation(200)
	chunked.Attrs = slices.Clone(base.Attrs)
	f.Add(AppendEncodeRange(nil, chunked, 50, 120))
	f.Add([]byte{codecMagic, 0, 2, 1, 'a', 1, 'b', 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge count, no payload
	const spare, sentinel = 256, Value(-0x5ca1ab1e)
	f.Fuzz(func(t *testing.T, buf []byte) {
		ref, refErr := Decode(buf)
		accept := refErr == nil && slices.Equal(ref.Attrs, base.Attrs)

		// tight must grow to take even one row; roomy takes up to spare
		// rows in place.
		tight, roomy := base.Clone(), base.Clone()
		for j, col := range roomy.cols {
			col = append(col, slices.Repeat([]Value{sentinel}, spare)...)
			roomy.cols[j] = col[:base.Len()]
		}
		grown := 0
		errTight := DecodeAppendGrow(buf, tight, func(col []Value, need int) []Value {
			grown++
			return growColumn(col, need)
		})
		errRoomy := DecodeAppend(buf, roomy, nil)
		if (errTight == nil) != accept || (errRoomy == nil) != accept {
			t.Fatalf("Decode: %v (%v); DecodeAppend: %v (must grow), %v (in place)", refErr, ref, errTight, errRoomy)
		}
		if !accept {
			if grown != 0 || !tight.Equal(base) || !roomy.Equal(base) {
				t.Fatalf("refused chunk (%v) changed dst (%d columns grown):\n%v\n%v", errTight, grown, tight, roomy)
			}
			for j, col := range roomy.cols {
				if k := slices.IndexFunc(col[len(col):len(col)+spare], func(v Value) bool { return v != sentinel }); k >= 0 {
					t.Fatalf("refused chunk (%v) wrote column %d, %d past dst's length", errRoomy, j, k)
				}
			}
			return
		}
		checkDecodedShape(t, ref)
		want := base.Clone()
		want.AppendColumns(ref.Columns())
		if !tight.Equal(want) || !roomy.Equal(want) {
			t.Fatalf("accepted chunk %v did not append its rows:\n%v\n%v", ref, tight, roomy)
		}
	})
}
