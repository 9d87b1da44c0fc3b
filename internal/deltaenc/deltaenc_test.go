package deltaenc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestZigzagRoundtripBoundaries(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 63, -64, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for _, v := range cases {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Errorf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	}
	// Zigzag must map small magnitudes to small codes (the property the
	// width choice depends on).
	if Zigzag(0) != 0 || Zigzag(-1) != 1 || Zigzag(1) != 2 || Zigzag(-2) != 3 {
		t.Errorf("zigzag order broken: %d %d %d %d", Zigzag(0), Zigzag(-1), Zigzag(1), Zigzag(-2))
	}
	if Zigzag(math.MinInt64) != math.MaxUint64 {
		t.Errorf("Zigzag(MinInt64) = %d, want MaxUint64", Zigzag(math.MinInt64))
	}
}

func TestValidWidth(t *testing.T) {
	for w := -1; w <= 16; w++ {
		want := w == 0 || w == 1 || w == 2 || w == 4 || w == 8
		if got := ValidWidth(w); got != want {
			t.Errorf("ValidWidth(%d) = %v, want %v", w, got, want)
		}
	}
}

// runRoundtrip encodes vals, asserts the chosen width, and decodes back.
func runRoundtrip(t *testing.T, vals []int64, wantWidth int) {
	t.Helper()
	buf := AppendRun(nil, vals)
	if len(buf) == 0 || int(buf[0]) != wantWidth {
		t.Fatalf("vals %v: encoded width %d, want %d", vals, buf[0], wantWidth)
	}
	if want := 1 + len(vals)*wantWidth; len(buf) != want {
		t.Fatalf("vals %v: encoded %d bytes, want %d", vals, len(buf), want)
	}
	out := make([]int64, len(vals))
	used, err := DecodeRun(buf, out)
	if err != nil {
		t.Fatalf("vals %v: decode: %v", vals, err)
	}
	if used != len(buf) {
		t.Fatalf("vals %v: consumed %d bytes, want %d", vals, used, len(buf))
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("vals %v: decoded %v", vals, out)
		}
	}
}

func TestRunRoundtripEveryWidth(t *testing.T) {
	runRoundtrip(t, []int64{0, 0, 0, 0}, 0)                      // all-zero deltas (first delta is vs 0)
	runRoundtrip(t, []int64{0, 1, 2, 3, -60}, 1)                 // |zigzag| < 1<<8
	runRoundtrip(t, []int64{0, 1000, 2000, -30000}, 2)           // < 1<<16
	runRoundtrip(t, []int64{0, 1 << 20, 1 << 21, -(1 << 29)}, 4) // < 1<<32
	runRoundtrip(t, []int64{0, 1 << 40, -(1 << 40)}, 8)          // wide deltas (exceptions would cost more)
	runRoundtrip(t, []int64{math.MaxInt64}, 8)                   // zigzag(MaxInt64) needs 8
	runRoundtrip(t, []int64{math.MinInt64}, 8)                   // zigzag(MinInt64) = MaxUint64
	runRoundtrip(t, nil, 0)                                      // empty run is one width byte
	// Full-range swings: two of the three deltas are tiny (the overflowing
	// subtraction wraps to ±1), so the adaptive encoder stores them at base
	// width 1 with a single wide exception — 17 bytes instead of 25.
	exceptionRoundtrip(t, []int64{math.MinInt64, math.MaxInt64, math.MinInt64}, 1, 1)
}

// exceptionRoundtrip encodes vals, asserts the exception-list form with
// the given base width and outlier count was chosen, and decodes back.
func exceptionRoundtrip(t *testing.T, vals []int64, wantBase, wantM int) {
	t.Helper()
	buf := AppendRun(nil, vals)
	if len(buf) == 0 || int(buf[0]) != exceptionTag|wantBase {
		t.Fatalf("vals %v: tag %#02x, want exception base %d (%#02x)",
			vals, buf[0], wantBase, exceptionTag|wantBase)
	}
	if want := 1 + uvarintLen(uint64(wantM)) + wantM*exceptionOverhead + len(vals)*wantBase; len(buf) != want {
		t.Fatalf("vals %v: encoded %d bytes, want %d", vals, len(buf), want)
	}
	if fixed := 1 + len(vals)*8; len(buf) >= fixed {
		t.Fatalf("vals %v: exception form (%d bytes) not smaller than widest fixed (%d)",
			vals, len(buf), fixed)
	}
	out := make([]int64, len(vals))
	used, err := DecodeRun(buf, out)
	if err != nil {
		t.Fatalf("vals %v: decode: %v", vals, err)
	}
	if used != len(buf) {
		t.Fatalf("vals %v: consumed %d bytes, want %d", vals, used, len(buf))
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("vals %v: decoded %v", vals, out)
		}
	}
}

// The exception-list form must engage exactly when it is smaller: a long
// narrow run with sparse wide outliers compresses near the base width,
// while dense outliers fall back to the fixed form.
func TestExceptionRunForms(t *testing.T) {
	// 64 small steps with two hub-sized jumps: base width 1, two outliers.
	vals := make([]int64, 64)
	acc := int64(0)
	for i := range vals {
		acc += int64(i % 7)
		vals[i] = acc
	}
	vals[20] += 1 << 40
	for i := 21; i < len(vals); i++ {
		vals[i] += 1 << 40 // jump up at 20 (wide delta), stays up: one outlier
	}
	vals[40] -= 1 << 40
	for i := 41; i < len(vals); i++ {
		vals[i] -= 1 << 40 // jump back down at 40: second outlier
	}
	exceptionRoundtrip(t, vals, 1, 2)

	// A constant run with one wide jump: base width 0 (all other deltas
	// zero) plus a single exception.
	flat := make([]int64, 32)
	for i := 16; i < 32; i++ {
		flat[i] = 1 << 50
	}
	exceptionRoundtrip(t, flat, 0, 1)

	// Dense outliers: every delta wide → fixed width 8 stays cheaper.
	wide := make([]int64, 16)
	for i := range wide {
		wide[i] = int64(i) << 40
	}
	runRoundtrip(t, wide, 8)

	// Marginal wins fail the margin gate: with a wide outlier every fourth
	// value, base 4 is smaller than fixed width 8 (282 vs 321 bytes here)
	// but saves only ~12.1% < 1/8, so the fixed width holds.
	marginal := make([]int64, 40)
	acc = 0
	for i := range marginal {
		if i%4 == 3 {
			acc += 1 << 40 // wide outlier
		} else {
			acc += 1 << 20 // needs 4 bytes: base 4, not narrower
		}
		marginal[i] = acc
	}
	marginalBuf := AppendRun(nil, marginal)
	if int(marginalBuf[0])&exceptionTag != 0 {
		t.Fatalf("marginal saving chose exception form (tag %#02x), margin gate should hold", marginalBuf[0])
	}

	// Exception at position 0 (the very first delta) and at the last slot.
	edge := make([]int64, 32)
	edge[0] = 1 << 50
	for i := 1; i < 31; i++ {
		edge[i] = edge[i-1] + 1
	}
	edge[31] = 1
	exceptionRoundtrip(t, edge, 1, 2)
}

// Randomized property: skewed runs (mostly small deltas, sparse huge
// jumps) always round-trip and never encode larger than the widest fixed
// form.
func TestExceptionRunProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(100)
		vals := make([]int64, n)
		acc := int64(0)
		for i := range vals {
			if rng.Intn(12) == 0 {
				acc += rng.Int63() - rng.Int63() // occasional huge jump
			} else {
				acc += int64(rng.Intn(100) - 50)
			}
			vals[i] = acc
		}
		buf := AppendRun(nil, vals)
		if len(buf) > 1+8*n {
			t.Fatalf("iter %d: encoded %d bytes > widest fixed %d", iter, len(buf), 1+8*n)
		}
		out := make([]int64, n)
		used, err := DecodeRun(buf, out)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if used != len(buf) {
			t.Fatalf("iter %d: consumed %d of %d bytes", iter, used, len(buf))
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("iter %d: value %d: got %d want %d", iter, i, out[i], vals[i])
			}
		}
		// RunSize must agree with the decoder on the section length.
		if size, err := RunSize(buf, n); err != nil || size != used {
			t.Fatalf("iter %d: RunSize=(%d,%v), decoder used %d", iter, size, err, used)
		}
	}
}

// Corrupt exception payloads must error, never panic or mis-decode
// silently out of bounds.
func TestExceptionRunCorrupt(t *testing.T) {
	flat := make([]int64, 32)
	for i := 16; i < 32; i++ {
		flat[i] = 1 << 50
	}
	good := AppendRun(nil, flat)
	if good[0] != exceptionTag|0 {
		t.Fatalf("setup: tag %#02x, want exception base 0", good[0])
	}
	out := make([]int64, len(flat))

	// Invalid base widths in the tag nibble.
	for _, tag := range []byte{exceptionTag | 3, exceptionTag | 5, exceptionTag | 8, 0x2F} {
		bad := append([]byte(nil), good...)
		bad[0] = tag
		if _, err := DecodeRun(bad, out); err == nil {
			t.Errorf("tag %#02x: want bad-tag error", tag)
		}
		if _, err := RunSize(bad, len(out)); err == nil {
			t.Errorf("tag %#02x: RunSize: want bad-tag error", tag)
		}
	}
	// Truncation at every byte.
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeRun(good[:cut], out); err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		}
	}
	// More exceptions than values.
	bad := append([]byte(nil), good...)
	bad[1] = 64 // uvarint m = 64 > n = 32
	if _, err := DecodeRun(bad, out); err == nil {
		t.Error("m > n not detected")
	}
	if _, err := RunSize(bad, len(out)); err == nil {
		t.Error("RunSize: m > n not detected")
	}
	// Out-of-range exception position.
	bad = append([]byte(nil), good...)
	bad[2], bad[3], bad[4], bad[5] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeRun(bad, out); err == nil {
		t.Error("out-of-range position not detected")
	}
	// Non-ascending positions: craft a two-exception run by hand.
	two := make([]int64, 8)
	two[2] = 1 << 50
	two[3] = 0
	for i := 4; i < 8; i++ {
		two[i] = 0
	}
	twoBuf := AppendRun(nil, two)
	if twoBuf[0] != exceptionTag|0 || twoBuf[1] != 2 {
		t.Fatalf("setup: want 2-exception base-0 run, got tag %#02x m=%d", twoBuf[0], twoBuf[1])
	}
	// Swap the two positions so they descend.
	copy(twoBuf[2:6], []byte{3, 0, 0, 0})
	copy(twoBuf[6:10], []byte{2, 0, 0, 0})
	if _, err := DecodeRun(twoBuf, make([]int64, 8)); err == nil {
		t.Error("non-ascending positions not detected")
	}
}

func TestRunRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(64)
		vals := make([]int64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = int64(rng.Intn(256))
			case 1:
				vals[i] = rng.Int63n(1 << 20)
			case 2:
				vals[i] = -rng.Int63n(1 << 40)
			default:
				vals[i] = int64(rng.Uint64()) // full range, incl. MinInt64 region
			}
		}
		buf := AppendRun(nil, vals)
		out := make([]int64, n)
		used, err := DecodeRun(buf, out)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if used != len(buf) {
			t.Fatalf("iter %d: consumed %d of %d bytes", iter, used, len(buf))
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("iter %d: value %d: got %d want %d", iter, i, out[i], vals[i])
			}
		}
	}
}

func TestAppendRunPreservesPrefix(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	buf := AppendRun(append([]byte(nil), prefix...), []int64{1, 2, 3})
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatalf("prefix clobbered: % x", buf[:2])
	}
	out := make([]int64, 3)
	if _, err := DecodeRun(buf[2:], out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("decoded %v", out)
	}
}

func TestDecodeRunErrors(t *testing.T) {
	out := make([]int64, 4)
	if _, err := DecodeRun(nil, out); err == nil {
		t.Error("empty buffer: want missing-width error")
	}
	for _, w := range []byte{3, 5, 6, 7, 9, 255} {
		if _, err := DecodeRun([]byte{w, 0, 0, 0, 0}, out); err == nil {
			t.Errorf("width %d: want bad-width error", w)
		}
	}
	// Truncated payloads at every valid width.
	for _, w := range []int{1, 2, 4, 8} {
		full := AppendRun(nil, []int64{1 << (8 * (w - 1)), 2 << (8 * (w - 1)), 0, 0}[:4])
		for cut := 1; cut < len(full); cut++ {
			if _, err := DecodeRun(full[:cut], out); err == nil {
				t.Errorf("width %d: truncation at %d bytes not detected", w, cut)
			}
		}
	}
}

func TestExtendReusesCapacity(t *testing.T) {
	base := make([]byte, 2, 64)
	got := Extend(base, 10)
	if len(got) != 12 {
		t.Fatalf("len=%d", len(got))
	}
	if &got[0] != &base[0] {
		t.Error("Extend should reuse capacity in place")
	}
	grown := Extend(make([]byte, 2, 4), 10)
	if len(grown) != 12 {
		t.Fatalf("grown len=%d", len(grown))
	}
}

// FuzzDecodeRun: the relation codec sizes every run with RunSize before it
// decodes any with DecodeRun, so the two must agree on every input — a run
// RunSize passes must decode, to exactly the size it reported, and a run it
// refuses must not decode either. Neither may panic on hostile bytes. The
// values a run decodes to, and values derived from the raw bytes (deltas
// of every byte width, with sparse wide outliers), must round-trip through
// AppendRun. The checked-in corpus (testdata/fuzz/FuzzDecodeRun) holds a
// run of every fixed width, exception runs of every base, and the corrupt
// runs TestExceptionRunCorrupt builds.
func FuzzDecodeRun(f *testing.F) {
	const maxRun = 4096
	f.Fuzz(func(t *testing.T, buf []byte, n uint16) {
		k := int(n) % (maxRun + 1)
		size, sizeErr := RunSize(buf, k)
		out := make([]int64, k)
		used, decErr := DecodeRun(buf, out)
		if (sizeErr == nil) != (decErr == nil) {
			t.Fatalf("n=%d: RunSize err %v, DecodeRun err %v\n in %x", k, sizeErr, decErr, buf)
		}
		if sizeErr == nil {
			if size != used {
				t.Fatalf("n=%d: RunSize %d bytes, DecodeRun consumed %d\n in %x", k, size, used, buf)
			}
			checkRoundtrip(t, out)
		}
		derived := make([]int64, min(len(buf), maxRun))
		prev := int64(0)
		for i := range derived {
			b := buf[i]
			prev += int64(int8(b)) << (8 * (b >> 5)) // b>>5 in 0..7: every width
			derived[i] = prev
		}
		checkRoundtrip(t, derived)
	})
}

// checkRoundtrip encodes vals with AppendRun and requires RunSize and
// DecodeRun to read back exactly the run, and the values.
func checkRoundtrip(t *testing.T, vals []int64) {
	t.Helper()
	enc := AppendRun(nil, vals)
	size, err := RunSize(enc, len(vals))
	if err != nil || size != len(enc) {
		t.Fatalf("RunSize of an encoded run: %d, %v; want %d\n vals %v\n enc %x", size, err, len(enc), vals, enc)
	}
	back := make([]int64, len(vals))
	used, err := DecodeRun(enc, back)
	if err != nil || used != len(enc) || !slices.Equal(back, vals) {
		t.Fatalf("round trip: used %d of %d, err %v\n vals %v\n back %v", used, len(enc), err, vals, back)
	}
}
