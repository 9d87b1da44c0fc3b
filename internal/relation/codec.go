package relation

import (
	"encoding/binary"
	"fmt"

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
// chunk decodes independently through Decode/DecodeAppend. This is the
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

// wireReader walks one encoded relation. Strings come back as sub-slices
// of the payload, so a caller that only compares them allocates nothing.
type wireReader struct {
	buf []byte
	off int
}

func (w *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(w.buf[w.off:])
	if n <= 0 {
		return 0, fmt.Errorf("relation decode: truncated varint at %d", w.off)
	}
	w.off += n
	return v, nil
}

func (w *wireReader) bytes() ([]byte, error) {
	n, err := w.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(w.buf)-w.off) < n {
		return nil, fmt.Errorf("relation decode: truncated string at %d", w.off)
	}
	b := w.buf[w.off : w.off+int(n)]
	w.off += int(n)
	return b, nil
}

// open checks the magic byte and reads the name and the arity, leaving the
// reader at the first attribute.
func (w *wireReader) open() (name []byte, arity int, err error) {
	if len(w.buf) == 0 || w.buf[0] != codecMagic {
		return nil, 0, fmt.Errorf("relation decode: bad magic (want 0x%02x)", codecMagic)
	}
	w.off = 1
	if name, err = w.bytes(); err != nil {
		return nil, 0, err
	}
	k, err := w.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if k > 64 {
		return nil, 0, fmt.Errorf("relation decode: implausible arity %d", k)
	}
	return name, int(k), nil
}

// rows reads the tuple count that follows the k attributes and checks
// everything after it without decoding a value: the count is plausible,
// every column's run is present and well-formed, and the runs end exactly
// where the payload does. The reader is left at the first run.
//
// This is the guard in front of every allocation a payload can ask for
// (it may arrive over the real TCP transport): every column section must
// be present before n*k values are materialized, and the total is capped
// outright — width-0 columns occupy no payload bytes, so byte accounting
// alone cannot bound a zero-compressed bomb. A relation without
// attributes holds no tuples.
func (w *wireReader) rows(k int) (int, error) {
	count, err := w.uvarint()
	if err != nil {
		return 0, err
	}
	n := int(count)
	if total := n * k; n < 0 || total < 0 || total > 1<<28 || (k == 0 && n > 0) {
		return 0, fmt.Errorf("relation decode: implausible tuple count %d", count)
	}
	end := w.off
	for j := 0; j < k && n > 0; j++ {
		size, err := deltaenc.RunSize(w.buf[end:], n)
		if err != nil {
			return 0, fmt.Errorf("relation decode: column %d: %w", j, err)
		}
		end += size
	}
	if end != len(w.buf) {
		return 0, fmt.Errorf("relation decode: %d trailing bytes", len(w.buf)-end)
	}
	return n, nil
}

// run decodes the next column's run into col (one value per row).
func (w *wireReader) run(j int, col []Value) error {
	if len(col) == 0 {
		return nil
	}
	used, err := deltaenc.DecodeRun(w.buf[w.off:], col)
	if err != nil {
		return fmt.Errorf("relation decode: column %d: %w", j, err)
	}
	w.off += used
	return nil
}

// Decode deserializes a relation encoded by Encode/AppendEncode into fresh
// columns. It is the reference decoder: it takes its schema from the
// payload, where DecodeAppend checks the payload against the receiver's,
// and FuzzDecodeAppend holds DecodeAppend to its verdict and rows. Each
// wire column is one contiguous delta run, so decode writes every column
// with a single sequential pass.
func Decode(buf []byte) (*Relation, error) {
	w := wireReader{buf: buf}
	name, k, err := w.open()
	if err != nil {
		return nil, err
	}
	attrs := make([]string, k)
	for i := range attrs {
		ab, err := w.bytes()
		if err != nil {
			return nil, err
		}
		attrs[i] = string(ab)
	}
	n, err := w.rows(k)
	if err != nil {
		return nil, err
	}
	cols := make([][]Value, k)
	for j := range cols {
		cols[j] = make([]Value, n)
		if err := w.run(j, cols[j]); err != nil {
			return nil, err
		}
	}
	return &Relation{Name: string(name), Attrs: attrs, cols: cols}, nil
}

// DecodeAppend appends one chunk's tuples to dst, decoding each column's
// run straight onto the tail of dst's column. This is the streaming
// receiver's incremental decode: chunks of one logical block accumulate
// into dst in arrival order, and a value is written once, where it stays.
//
// Validate, then write. dst carries the schema the receiver expects, and
// the whole chunk is checked against it before a byte of dst changes:
// magic, arity and attribute names (compared as bytes; the relation name
// is not — senders ship projections and partitions under derived names),
// the tuple count and its cap, every column's run, no trailing bytes. A
// chunk that fails any of it — it arrived from outside the process — is an
// error and leaves dst's length and contents as they were. Columns that
// must grow at least double, so a stream of chunks copies each value O(1)
// times.
//
// The third parameter is unused. It was the scratch relation chunks were
// once decoded through; benchmark/ still passes one, and the parameter
// goes when benchmark/ moves off internal signatures (ROADMAP item 6).
func DecodeAppend(buf []byte, dst, _ *Relation) error {
	return DecodeAppendGrow(buf, dst, nil)
}

// DecodeAppendGrow is DecodeAppend with the caller supplying column
// growth: when a column of dst cannot hold the chunk, grow(col, need) must
// return a slice holding col's values with capacity at least need, and
// owns col afterwards. A nil grow allocates (growColumn). grow runs only
// after the chunk has passed validation.
func DecodeAppendGrow(buf []byte, dst *Relation, grow func(col []Value, need int) []Value) error {
	w := wireReader{buf: buf}
	_, k, err := w.open()
	if err != nil {
		return err
	}
	if k != len(dst.Attrs) {
		return fmt.Errorf("relation decode: chunk arity %d, receiver expects %v", k, dst.Attrs)
	}
	for _, want := range dst.Attrs {
		ab, err := w.bytes()
		if err != nil {
			return err
		}
		if string(ab) != want {
			return fmt.Errorf("relation decode: chunk attribute %q, receiver expects %v", ab, dst.Attrs)
		}
	}
	n, err := w.rows(k)
	if err != nil {
		return err
	}
	if grow == nil {
		grow = growColumn
	}
	for j, col := range dst.cols {
		old := len(col)
		if cap(col)-old < n {
			col = grow(col, old+n)
		}
		col = col[:old+n]
		dst.cols[j] = col
		// rows has already walked this run with the decoder's own size
		// check, so the decode below cannot fail part-way through dst.
		if err := w.run(j, col[old:]); err != nil {
			for j := range dst.cols {
				dst.cols[j] = dst.cols[j][:old]
			}
			return err
		}
	}
	return nil
}

// growColumn is append's job with a floor on the step: at least double, so
// a column that receives a stream of chunks is copied O(1) times per value
// where append's 1.25× steps copy it four times over.
func growColumn(col []Value, need int) []Value {
	grown := make([]Value, len(col), max(need, 2*cap(col)))
	copy(grown, col)
	return grown
}
