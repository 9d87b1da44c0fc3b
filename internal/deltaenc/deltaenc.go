// Package deltaenc is the shared wire-level delta scheme of the batched
// codecs: zigzag-mapped deltas stored at one fixed byte width per run
// (0, 1, 2, 4 or 8 — width 0 means every delta is zero), or — when it is
// strictly smaller — in the exception-list form: a narrow base width for
// the bulk of the run plus a sparse list of wide outlier deltas, so one
// skewed value no longer forces the whole run wide. The relation codec
// applies the scheme column-wise; the trie codec applies it to flat level
// arrays. Keeping the primitives here means a width or zigzag fix cannot
// drift between the two payload formats.
package deltaenc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Zigzag maps signed deltas onto unsigned magnitudes.
func Zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// ValidWidth reports whether w is an encodable fixed width.
func ValidWidth(w int) bool {
	switch w {
	case 0, 1, 2, 4, 8:
		return true
	}
	return false
}

// exceptionTag marks the exception-list run form: the low nibble holds the
// base width (0, 1, 2 or 4 — never 8, which has no outliers to strip).
// Values 0–8 remain the plain fixed-width tags, so old payloads decode
// unchanged.
const exceptionTag = 0x10

// exceptionOverhead is the wire cost of one outlier: a u32 position plus a
// u64 wide zigzag delta.
const exceptionOverhead = 12

// validBase reports whether b can be an exception run's base width.
func validBase(b int) bool {
	switch b {
	case 0, 1, 2, 4:
		return true
	}
	return false
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Extend grows dst by n bytes and returns the extended slice; the new
// region's contents are overwritten by the caller.
func Extend(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	return append(dst, make([]byte, n)...)
}

// AppendRun encodes vals as one zigzag-delta run: a tag byte followed by
// the run body. The encoder picks, per run, the cheapest of the fixed
// widths and the exception-list forms — the latter is chosen only when its
// total size (tag + exception count + 12 bytes per outlier + narrow base
// deltas) beats every fixed width, so a run of graph ids with a handful of
// hub-sized jumps stores one or two bytes per value instead of going wide
// for the whole run.
func AppendRun(dst []byte, vals []int64) []byte {
	// Pass 1: bucket every delta by bit length (one lzcnt + increment per
	// value — the only cost the common fixed-width case pays for width
	// adaptivity). Bucket b holds deltas of (b·8-7)..(b·8) significant
	// bits, i.e. exactly the ones needing b bytes; bucket 0 is the zeros.
	// Two interleaved tallies break the store-to-load dependency a single
	// array would chain through same-class runs (sorted data is exactly
	// such a run); the &15 mask proves the index in range so the loop
	// stays bounds-check-free.
	var bucketsA, bucketsB [16]int
	prev := int64(0)
	n2 := len(vals) &^ 1
	for i := 0; i < n2; i += 2 {
		za := Zigzag(vals[i] - prev)
		zb := Zigzag(vals[i+1] - vals[i])
		prev = vals[i+1]
		bucketsA[((bits.Len64(za)+7)>>3)&15]++
		bucketsB[((bits.Len64(zb)+7)>>3)&15]++
	}
	if n2 < len(vals) {
		bucketsA[((bits.Len64(Zigzag(vals[n2]-prev))+7)>>3)&15]++
	}
	var buckets [16]int
	for i := range buckets {
		buckets[i] = bucketsA[i] + bucketsB[i]
	}
	n := len(vals)
	// Cumulative fits per base width and the tightest fixed width.
	c0 := buckets[0]
	c1 := c0 + buckets[1]
	c2 := c1 + buckets[2]
	c4 := c2 + buckets[3] + buckets[4]
	wf := 8
	switch n {
	case c0:
		wf = 0
	case c1:
		wf = 1
	case c2:
		wf = 2
	case c4:
		wf = 4
	}
	bestCost := 1 + n*wf
	bestBase, bestM := -1, 0 // base -1 = plain fixed width
	for _, cand := range [...]struct{ base, fit int }{{0, c0}, {1, c1}, {2, c2}, {4, c4}} {
		if cand.base >= wf {
			break
		}
		m := n - cand.fit
		cost := 1 + uvarintLen(uint64(m)) + m*exceptionOverhead + n*cand.base
		// Margin gate: the exception form must be at least 1/8 smaller
		// than the best fixed width, not merely smaller. Marginal wins
		// (dense-ish outliers shaving single-digit percents) cost more in
		// the branchy encode/decode loops than the bytes save against the
		// modeled link bandwidth; genuinely sparse skew clears the margin
		// easily.
		if cost*8 > (1+n*wf)*7 {
			continue
		}
		if cost < bestCost {
			bestCost = cost
			bestBase, bestM = cand.base, m
		}
	}
	if bestBase < 0 {
		return appendFixedRun(dst, vals, wf)
	}
	return appendExceptionRun(dst, vals, bestBase, bestM)
}

// appendFixedRun writes the classic fixed-width form: a width byte
// followed by len(vals) fixed-width little-endian deltas.
func appendFixedRun(dst []byte, vals []int64, w int) []byte {
	dst = append(dst, byte(w))
	if w == 0 {
		return dst
	}
	off := len(dst)
	dst = Extend(dst, len(vals)*w)
	out := dst[off:]
	prev := int64(0)
	switch w {
	case 1:
		for i, v := range vals {
			out[i] = byte(Zigzag(v - prev))
			prev = v
		}
	case 2:
		for i, v := range vals {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(Zigzag(v-prev)))
			prev = v
		}
	case 4:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(Zigzag(v-prev)))
			prev = v
		}
	default:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[8*i:], Zigzag(v-prev))
			prev = v
		}
	}
	return dst
}

// appendExceptionRun writes the exception-list form: tag (0x10|base),
// uvarint outlier count m, m u32 ascending positions, m u64 wide zigzag
// deltas, then len(vals) base-width deltas with outlier slots zeroed.
func appendExceptionRun(dst []byte, vals []int64, base, m int) []byte {
	dst = append(dst, byte(exceptionTag|base))
	dst = binary.AppendUvarint(dst, uint64(m))
	off := len(dst)
	dst = Extend(dst, m*exceptionOverhead+len(vals)*base)
	pos := dst[off : off+4*m]
	wide := dst[off+4*m : off+exceptionOverhead*m]
	body := dst[off+exceptionOverhead*m:]
	// A delta is an outlier iff its zigzag ≥ thr; 1<<(8·base) covers base 0
	// too (z ≥ 1 ⇔ z ≠ 0). Specialized per-base loops keep the body write
	// branch-free apart from the (rare, predictable) outlier test.
	thr := uint64(1) << (8 * base)
	prev := int64(0)
	e := 0
	switch base {
	case 0:
		for i, v := range vals {
			z := Zigzag(v - prev)
			prev = v
			if z != 0 {
				binary.LittleEndian.PutUint32(pos[4*e:], uint32(i))
				binary.LittleEndian.PutUint64(wide[8*e:], z)
				e++
			}
		}
	case 1:
		for i, v := range vals {
			z := Zigzag(v - prev)
			prev = v
			if z >= thr {
				binary.LittleEndian.PutUint32(pos[4*e:], uint32(i))
				binary.LittleEndian.PutUint64(wide[8*e:], z)
				e++
				z = 0
			}
			body[i] = byte(z)
		}
	case 2:
		for i, v := range vals {
			z := Zigzag(v - prev)
			prev = v
			if z >= thr {
				binary.LittleEndian.PutUint32(pos[4*e:], uint32(i))
				binary.LittleEndian.PutUint64(wide[8*e:], z)
				e++
				z = 0
			}
			binary.LittleEndian.PutUint16(body[2*i:], uint16(z))
		}
	default:
		for i, v := range vals {
			z := Zigzag(v - prev)
			prev = v
			if z >= thr {
				binary.LittleEndian.PutUint32(pos[4*e:], uint32(i))
				binary.LittleEndian.PutUint64(wide[8*e:], z)
				e++
				z = 0
			}
			binary.LittleEndian.PutUint32(body[4*i:], uint32(z))
		}
	}
	return dst
}

// RunSize returns the total encoded size of the run of n values starting
// at buf, validating that buf holds it entirely and that DecodeRun will
// accept it — the section walk the relation codec performs before
// materializing any values. A run RunSize passes decodes without error, so
// a caller that sizes every run first never stops half-way through a write.
func RunSize(buf []byte, n int) (int, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("deltaenc: missing tag byte")
	}
	tag := int(buf[0])
	if ValidWidth(tag) {
		size := 1 + n*tag
		if len(buf) < size {
			return 0, fmt.Errorf("deltaenc: truncated run: need %d bytes", size)
		}
		return size, nil
	}
	_, _, size, err := exceptionLayout(buf, n)
	return size, err
}

// exceptionLayout validates the exception-list form of a run of n values
// at buf — the tag, the outlier count, the size, and the position list
// (strictly ascending, in range) — so a corrupt or hostile payload cannot
// index out of bounds. It returns the outlier count m, the width uw of its
// varint and the run's total size.
func exceptionLayout(buf []byte, n int) (m, uw, size int, err error) {
	tag := int(buf[0])
	base := tag &^ exceptionTag
	if tag&exceptionTag == 0 || !validBase(base) {
		return 0, 0, 0, fmt.Errorf("deltaenc: bad run tag %#02x", tag)
	}
	m64, uw := binary.Uvarint(buf[1:])
	if uw <= 0 {
		return 0, 0, 0, fmt.Errorf("deltaenc: truncated exception count")
	}
	if m64 > uint64(n) {
		return 0, 0, 0, fmt.Errorf("deltaenc: %d exceptions for %d values", m64, n)
	}
	m = int(m64)
	size = 1 + uw + m*exceptionOverhead + n*base
	if len(buf) < size {
		return 0, 0, 0, fmt.Errorf("deltaenc: truncated exception run: need %d bytes", size)
	}
	pos := buf[1+uw : 1+uw+4*m]
	last := -1
	for e := 0; e < m; e++ {
		p := int(binary.LittleEndian.Uint32(pos[4*e:]))
		if p <= last || p >= n {
			return 0, 0, 0, fmt.Errorf("deltaenc: bad exception position %d (n=%d)", p, n)
		}
		last = p
	}
	return m, uw, size, nil
}

// DecodeRun decodes len(out) values from buf (a tag byte plus the run
// body, in either the fixed-width or the exception-list form) into out and
// returns the bytes consumed.
func DecodeRun(buf []byte, out []int64) (int, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("deltaenc: missing tag byte")
	}
	tag := int(buf[0])
	if !ValidWidth(tag) {
		return decodeExceptionRun(buf, out)
	}
	w := tag
	n := len(out)
	need := 1 + n*w
	if len(buf) < need {
		return 0, fmt.Errorf("deltaenc: truncated run: need %d bytes", need)
	}
	in := buf[1:need]
	prev := int64(0)
	switch w {
	case 0:
		for i := range out {
			out[i] = 0
		}
	case 1:
		for i := range out {
			prev += Unzigzag(uint64(in[i]))
			out[i] = prev
		}
	case 2:
		for i := range out {
			prev += Unzigzag(uint64(binary.LittleEndian.Uint16(in[2*i:])))
			out[i] = prev
		}
	case 4:
		for i := range out {
			prev += Unzigzag(uint64(binary.LittleEndian.Uint32(in[4*i:])))
			out[i] = prev
		}
	default:
		for i := range out {
			prev += Unzigzag(binary.LittleEndian.Uint64(in[8*i:]))
			out[i] = prev
		}
	}
	return need, nil
}

// decodeExceptionRun decodes the exception-list form once exceptionLayout
// has accepted it.
func decodeExceptionRun(buf []byte, out []int64) (int, error) {
	n := len(out)
	m, uw, need, err := exceptionLayout(buf, n)
	if err != nil {
		return 0, err
	}
	base := int(buf[0]) &^ exceptionTag
	pos := buf[1+uw : 1+uw+4*m]
	wide := buf[1+uw+4*m : 1+uw+exceptionOverhead*m]
	body := buf[1+uw+exceptionOverhead*m : need]
	// Decode segment-wise: a tight base-width loop between outliers, then
	// the wide delta spliced in — the inner loops stay branch-free.
	prev := int64(0)
	i := 0
	for e := 0; e <= m; e++ {
		stop := n
		if e < m {
			stop = int(binary.LittleEndian.Uint32(pos[4*e:]))
		}
		switch base {
		case 0:
			for ; i < stop; i++ {
				out[i] = prev
			}
		case 1:
			for ; i < stop; i++ {
				prev += Unzigzag(uint64(body[i]))
				out[i] = prev
			}
		case 2:
			for ; i < stop; i++ {
				prev += Unzigzag(uint64(binary.LittleEndian.Uint16(body[2*i:])))
				out[i] = prev
			}
		default:
			for ; i < stop; i++ {
				prev += Unzigzag(uint64(binary.LittleEndian.Uint32(body[4*i:])))
				out[i] = prev
			}
		}
		if e < m {
			prev += Unzigzag(binary.LittleEndian.Uint64(wide[8*e:]))
			out[i] = prev
			i++
		}
	}
	return need, nil
}
