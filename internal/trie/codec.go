package trie

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"adj/internal/deltaenc"
)

// Binary codec for tries: the wire format the Merge HCube ships between
// servers. Tries serialize to contiguous arrays, which is the efficiency
// argument the paper gives for Merge over Pull ("one trie, implemented
// using three arrays, is easier to serialize and deserialize than many
// tuples") — and both arrays are sorted runs (level values ascend within
// each parent group, starts are non-decreasing), so each is stored as one
// fixed-width zigzag-delta run, the same batched layout the relation codec
// uses for tuple blocks.
//
// Layout (all little-endian):
//
//	u8 magic 0xA7
//	u32 arity
//	per attr: u32 name length, name bytes
//	uvarint numTuples
//	per level:
//	  uvarint len(vals);   u8 width; len(vals) fixed-width zigzag deltas
//	  uvarint len(starts); u8 width; len(starts) fixed-width zigzag deltas

// trieMagic tags the delta-encoded trie format.
const trieMagic = 0xA7

// AppendEncode appends the trie's encoding to dst and returns the extended
// buffer. A sender encoding block after block passes the same buffer back
// each time, so its encodings stop allocating once it fits the largest.
func AppendEncode(dst []byte, t *Trie) []byte {
	size := 1 + 4 + 8
	for _, a := range t.Attrs {
		size += 4 + len(a)
	}
	for _, l := range t.Levels {
		// Sorted runs usually fit 1–2 bytes per delta; headroom is cheap.
		size += 24 + 2*len(l.Vals) + 2*len(l.Starts)
	}
	buf := slices.Grow(dst, size)
	buf = append(buf, trieMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Attrs)))
	for _, a := range t.Attrs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a)))
		buf = append(buf, a...)
	}
	buf = binary.AppendUvarint(buf, uint64(t.NumTuples))
	for _, l := range t.Levels {
		buf = binary.AppendUvarint(buf, uint64(len(l.Vals)))
		buf = deltaenc.AppendRun(buf, l.Vals)
		buf = binary.AppendUvarint(buf, uint64(len(l.Starts)))
		// Starts are int32; widen through a stack-friendly loop.
		buf = appendDeltaStarts(buf, l.Starts)
	}
	return buf
}

// wideScratch pools the int64 staging slice that widens int32 starts
// arrays through the shared delta-run codec.
var wideScratch = sync.Pool{New: func() interface{} {
	s := make([]int64, 0, 1024)
	return &s
}}

func getWide(n int) (*[]int64, []int64) {
	sp := wideScratch.Get().(*[]int64)
	s := *sp
	if cap(s) < n {
		s = make([]int64, n)
	} else {
		s = s[:n]
	}
	return sp, s
}

func putWide(sp *[]int64, s []int64) {
	*sp = s[:0]
	wideScratch.Put(sp)
}

// appendDeltaStarts widens the non-decreasing starts array and reuses the
// int64 delta-run codec.
func appendDeltaStarts(dst []byte, starts []int32) []byte {
	sp, wide := getWide(len(starts))
	for i, v := range starts {
		wide[i] = int64(v)
	}
	dst = deltaenc.AppendRun(dst, wide)
	putWide(sp, wide)
	return dst
}

func decodeDeltaStarts(buf []byte, out []int32) (int, error) {
	sp, wide := getWide(len(out))
	defer putWide(sp, wide)
	used, err := deltaenc.DecodeRun(buf, wide)
	if err != nil {
		return 0, err
	}
	for i, v := range wide {
		if v < 0 || v > 1<<31-1 {
			return 0, fmt.Errorf("trie decode: starts[%d]=%d overflows int32", i, v)
		}
		out[i] = int32(v)
	}
	return used, nil
}

// Decode deserializes a trie encoded by AppendEncode.
func Decode(buf []byte) (*Trie, error) {
	if len(buf) < 1 || buf[0] != trieMagic {
		return nil, fmt.Errorf("trie decode: bad magic (want 0x%02x)", trieMagic)
	}
	off := 1
	get32 := func() (uint32, error) {
		if off+4 > len(buf) {
			return 0, fmt.Errorf("trie decode: truncated at offset %d", off)
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	getUvarint := func() (uint64, error) {
		v, w := binary.Uvarint(buf[off:])
		if w <= 0 {
			return 0, fmt.Errorf("trie decode: truncated varint at offset %d", off)
		}
		off += w
		return v, nil
	}
	arity, err := get32()
	if err != nil {
		return nil, err
	}
	if arity > 64 {
		return nil, fmt.Errorf("trie decode: implausible arity %d", arity)
	}
	t := &Trie{Attrs: make([]string, arity), Levels: make([]Level, arity)}
	for i := range t.Attrs {
		n, err := get32()
		if err != nil {
			return nil, err
		}
		if off+int(n) > len(buf) {
			return nil, fmt.Errorf("trie decode: truncated attr name at offset %d", off)
		}
		t.Attrs[i] = string(buf[off : off+int(n)])
		off += int(n)
	}
	nt, err := getUvarint()
	if err != nil {
		return nil, err
	}
	t.NumTuples = int(nt)
	for d := range t.Levels {
		nv, err := getUvarint()
		if err != nil {
			return nil, err
		}
		if nv > uint64(len(buf)) {
			return nil, fmt.Errorf("trie decode: implausible level %d size %d", d, nv)
		}
		vals := make([]Value, nv)
		used, err := deltaenc.DecodeRun(buf[off:], vals)
		if err != nil {
			return nil, err
		}
		off += used
		ns, err := getUvarint()
		if err != nil {
			return nil, err
		}
		if ns > uint64(len(buf)) {
			return nil, fmt.Errorf("trie decode: implausible level %d starts size %d", d, ns)
		}
		starts := make([]int32, ns)
		used, err = decodeDeltaStarts(buf[off:], starts)
		if err != nil {
			return nil, err
		}
		off += used
		t.Levels[d] = Level{Vals: vals, Starts: starts}
	}
	if off != len(buf) {
		return nil, fmt.Errorf("trie decode: %d trailing bytes", len(buf)-off)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	if arity > 0 {
		t.Root = newDirectory(t.Levels[0].Vals)
	}
	return t, nil
}

// validate checks a decoded trie against the shape every builder produces
// (see the package doc). A corrupt payload — the wire may be a real TCP
// transport — must fail here, as an error the receiver reports, not as a
// slice-bounds panic or a silently wrong answer at join time.
func (t *Trie) validate() error {
	parents := 1 // level 0 hangs off the root
	for d, l := range t.Levels {
		// One start per parent plus the terminator; under an empty level
		// that is the terminator alone.
		if len(l.Starts) != parents+1 {
			return fmt.Errorf("trie decode: level %d has %d starts, want %d", d, len(l.Starts), parents+1)
		}
		if l.Starts[0] != 0 || int(l.Starts[parents]) != len(l.Vals) {
			return fmt.Errorf("trie decode: level %d starts span [%d, %d], want [0, %d]",
				d, l.Starts[0], l.Starts[parents], len(l.Vals))
		}
		for p := 0; p < parents; p++ {
			lo, hi := l.Starts[p], l.Starts[p+1]
			// Below level 0 every parent has a child; only a whole trie
			// may be empty.
			if hi < lo || (hi == lo && d > 0) || int(hi) > len(l.Vals) {
				return fmt.Errorf("trie decode: level %d starts[%d]=%d after %d (%d vals)", d, p+1, hi, lo, len(l.Vals))
			}
			for i := lo + 1; i < hi; i++ {
				if l.Vals[i-1] >= l.Vals[i] {
					return fmt.Errorf("trie decode: level %d values not ascending at %d", d, i)
				}
			}
		}
		parents = len(l.Vals)
	}
	leaves := 0
	if len(t.Levels) > 0 {
		leaves = parents
	}
	if t.NumTuples != leaves {
		return fmt.Errorf("trie decode: %d tuples claimed, %d leaves", t.NumTuples, leaves)
	}
	return nil
}
