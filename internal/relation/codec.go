package relation

import (
	"encoding/binary"
	"fmt"
	"slices"

	"adj/internal/deltaenc"
)

// Binary wire codec for relations: the payload format of tuple blocks in
// the cluster transport.
//
// The batched format encodes each column as one run of zigzag deltas
// against the previous tuple, stored at a byte width chosen per column
// (0, 1, 2, 4 or 8 bytes — width 0 means every delta is zero), or in
// deltaenc's exception-list form when a few outlier deltas would
// otherwise force the whole column wide. A sorted run of graph-id tuples
// costs one or two bytes per value instead of eight, and the fixed-width
// inner loops carry no per-byte branches, so both encode and decode run
// at memcpy-like speed. Senders sort blocks before encoding (receivers
// re-sort into tries anyway), which is where the "sorted tuple runs" win
// comes from; unsorted input still round-trips correctly, just less
// compactly.
//
// Layout:
//
//	u8 magic 0xAD
//	uvarint name length, name bytes
//	uvarint arity; per attr: uvarint len, bytes
//	uvarint tuple count n
//	per column: one deltaenc run of n values (fixed-width or exception form)
//
// Package trie applies the same delta-run scheme to its flat level arrays
// (trie/codec.go).

// codecMagic tags the batched delta format.
const codecMagic = 0xAD

// AppendEncode serializes r onto dst (which may be nil or a recycled
// buffer) and returns the extended slice. This is the allocation-free path:
// callers that pool their buffers pay nothing beyond the payload itself.
// Each column encodes as one contiguous deltaenc run — a pure sequential
// scan with no gather loop.
func AppendEncode(dst []byte, r *Relation) []byte {
	return AppendEncodeRange(dst, r, 0, r.Len())
}

// AppendEncodeRange serializes the row range [lo, hi) of r onto dst as a
// complete, standalone relation encoding: the chunk carries the full
// schema header and its delta runs restart at the range boundary, so every
// chunk decodes independently through DecodeInto/DecodeAppend. This is the
// streaming transport's chunked encode: a block cut into row ranges
// ships as it is encoded instead of materializing one monolithic payload.
// AppendEncodeRange(dst, r, 0, r.Len()) is byte-identical to AppendEncode.
func AppendEncodeRange(dst []byte, r *Relation, lo, hi int) []byte {
	if lo < 0 {
		lo = 0
	}
	if max := r.Len(); hi > max {
		hi = max
	}
	dst = append(dst, codecMagic)
	dst = binary.AppendUvarint(dst, uint64(len(r.Name)))
	dst = append(dst, r.Name...)
	k := len(r.Attrs)
	dst = binary.AppendUvarint(dst, uint64(k))
	for _, a := range r.Attrs {
		dst = binary.AppendUvarint(dst, uint64(len(a)))
		dst = append(dst, a...)
	}
	n := hi - lo
	if n < 0 {
		n = 0
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == 0 || k == 0 {
		return dst
	}
	for _, col := range r.cols {
		dst = deltaenc.AppendRun(dst, col[lo:hi])
	}
	return dst
}

// Encode serializes r into a fresh buffer.
func Encode(r *Relation) []byte {
	// Capacity guess: headers plus ~3 bytes per value for sorted id runs;
	// a pathological run grows once.
	hint := 16 + len(r.Name) + r.Len()*r.Arity()*3
	for _, a := range r.Attrs {
		hint += 8 + len(a)
	}
	return AppendEncode(make([]byte, 0, hint), r)
}

// Decode deserializes a relation encoded by Encode/AppendEncode.
func Decode(buf []byte) (*Relation, error) {
	var r Relation
	if err := DecodeInto(buf, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeInto deserializes into r, reusing r's backing arrays (when their
// capacity suffices) and r's schema strings (when they match the payload).
// Receivers that decode a stream of blocks into one scratch relation
// allocate nothing in steady state. r must be owned by the caller — its
// arrays are overwritten, so never pass a relation whose columns or Attrs
// are shared (e.g. via Renamed). Each wire column is one contiguous delta
// run, so decode writes every column with a single sequential pass.
func DecodeInto(buf []byte, r *Relation) error {
	if len(buf) == 0 || buf[0] != codecMagic {
		return fmt.Errorf("relation decode: bad magic (want 0x%02x)", codecMagic)
	}
	off := 1
	getUvarint := func() (uint64, error) {
		v, w := binary.Uvarint(buf[off:])
		if w <= 0 {
			return 0, fmt.Errorf("relation decode: truncated varint at %d", off)
		}
		off += w
		return v, nil
	}
	// Read name/attr bytes without allocating when they match r's current
	// schema — the steady state for a consumer decoding a stream of blocks
	// of the same relation ("string(b) == s" compares without copying).
	getStringBytes := func() ([]byte, error) {
		n, err := getUvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)-off) < n {
			return nil, fmt.Errorf("relation decode: truncated string at %d", off)
		}
		b := buf[off : off+int(n)]
		off += int(n)
		return b, nil
	}
	nameBytes, err := getStringBytes()
	if err != nil {
		return err
	}
	name := r.Name
	if string(nameBytes) != name {
		name = string(nameBytes)
	}
	arity, err := getUvarint()
	if err != nil {
		return err
	}
	if arity > 64 {
		return fmt.Errorf("relation decode: implausible arity %d", arity)
	}
	attrs := r.Attrs
	if len(attrs) != int(arity) {
		attrs = make([]string, arity)
	}
	for i := range attrs {
		ab, err := getStringBytes()
		if err != nil {
			return err
		}
		if string(ab) != attrs[i] {
			attrs[i] = string(ab)
		}
	}
	count, err := getUvarint()
	if err != nil {
		return err
	}
	k := int(arity)
	n := int(count)
	total := n * k
	// Guard the allocation below against corrupt or hostile counts (the
	// payload may arrive over the real TCP transport): every column
	// section must be present in the buffer before n*k values are
	// materialized, and the total is capped outright — width-0 columns
	// occupy no payload bytes, so byte accounting alone cannot bound a
	// zero-compressed bomb. A relation without attributes holds no tuples.
	if n < 0 || total < 0 || total > 1<<28 || (k == 0 && n > 0) {
		return fmt.Errorf("relation decode: implausible tuple count %d", count)
	}
	walk := off
	for j := 0; j < k && n > 0; j++ {
		size, err := deltaenc.RunSize(buf[walk:], n)
		if err != nil {
			return fmt.Errorf("relation decode: column %d: %w", j, err)
		}
		walk += size
	}
	cols := r.cols
	if cap(cols) >= k {
		cols = cols[:k]
	} else {
		cols = make([][]Value, k)
	}
	for j := 0; j < k; j++ {
		if cap(cols[j]) >= n {
			cols[j] = cols[j][:n]
		} else {
			cols[j] = make([]Value, n)
		}
	}
	for j := 0; j < k && n > 0; j++ {
		used, err := deltaenc.DecodeRun(buf[off:], cols[j])
		if err != nil {
			return fmt.Errorf("relation decode: column %d: %w", j, err)
		}
		off += used
	}
	if off != len(buf) {
		return fmt.Errorf("relation decode: %d trailing bytes", len(buf)-off)
	}
	r.Name = name
	r.Attrs = attrs
	r.cols = cols
	return nil
}

// DecodeAppend decodes one chunk payload through scratch (caller-owned,
// reused across chunks — the steady state allocates nothing) and appends
// its tuples to dst column-wise. This is the streaming receiver's
// incremental decode: chunks of one logical block accumulate into dst in
// arrival order without materializing the whole block's bytes first.
//
// dst carries the schema the receiver expects. A chunk that decodes but
// has another arity or other attribute names is an error like any other
// corrupt payload — it arrived from outside the process — and leaves dst
// untouched. The relation name is not compared: senders ship projections
// and partitions under derived names.
func DecodeAppend(buf []byte, dst, scratch *Relation) error {
	if err := DecodeInto(buf, scratch); err != nil {
		return err
	}
	if !slices.Equal(scratch.Attrs, dst.Attrs) {
		return fmt.Errorf("relation decode: chunk schema %v, receiver expects %v", scratch.Attrs, dst.Attrs)
	}
	dst.AppendColumns(scratch.cols)
	return nil
}
