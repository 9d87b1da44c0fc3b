package relation

// Hash64 is an incremental FNV-1a hasher shared by every content/layout/
// provenance signature in the runtime (relation fingerprints, the shuffle
// layout keys, derived-relation provenance). Keeping one implementation
// matters: signatures computed by different components must keep matching
// each other across any future change to the mixing.
type Hash64 uint64

// NewHash64 returns the FNV-64 offset basis.
func NewHash64() Hash64 { return 0xcbf29ce484222325 }

const hash64Prime = 0x100000001b3

// Word mixes one 64-bit value, byte by byte.
func (h *Hash64) Word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= hash64Prime
		v >>= 8
	}
	*h = Hash64(x)
}

// Bytes mixes a string's bytes followed by a terminator, so adjacent
// strings cannot alias each other's boundaries.
func (h *Hash64) Bytes(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= hash64Prime
	}
	x ^= 0xff
	x *= hash64Prime
	*h = Hash64(x)
}

// Sum returns the current hash value.
func (h Hash64) Sum() uint64 { return uint64(h) }

// Fingerprint returns a content signature of the relation: a 64-bit hash of
// its schema shape (arity, tuple count) and every value in row order. Two
// relations with the same fingerprint are treated as having identical
// content by the session-resident block-trie store (package blockcache), so
// the hash is order-dependent and covers every byte of every value — a
// permuted copy of the same multiset fingerprints differently, which is
// merely a missed reuse opportunity, never an unsoundness.
//
// Attribute *names* are deliberately excluded: a graph query binds the same
// edge relation under many atom names, and block tries built from it depend
// only on the values and the column permutation, not on what the columns
// are called. How the relation was constructed does not matter either:
// equal content in equal row order always fingerprints equal.
func Fingerprint(r *Relation) uint64 {
	h := NewHash64()
	h.Word(uint64(r.Arity()))
	h.Word(uint64(r.Len()))
	for i, n := 0, r.Len(); i < n; i++ {
		for _, col := range r.cols {
			h.Word(uint64(col[i]))
		}
	}
	return h.Sum()
}
