// Package hcube implements the HCube one-round shuffle (§II-A, §V of the
// paper): the output space of a join is divided into hypercubes by a share
// vector p (partitions per attribute); every input tuple is replicated to
// the cubes whose coordinates match the tuple's hash on the relation's own
// attributes. After one exchange every server evaluates its cube
// independently — no intermediate-result shuffling.
//
// The share optimizer solves the paper's Eq. (3): minimize total shuffled
// tuples subject to p ≥ 1 and a per-server memory bound, by exhaustive
// enumeration of the share vectors whose product is the server count, one
// cube per server (queries here have at most six attributes, so enumeration
// is exact and fast).
package hcube

import (
	"fmt"
	"math"
	"sort"

	"adj/internal/relation"
)

// RelInfo describes one input relation for share optimization.
type RelInfo struct {
	Name  string
	Attrs []string
	Size  int64
}

// InfoOf extracts RelInfo from bound relations.
func InfoOf(rels []*relation.Relation) []RelInfo {
	out := make([]RelInfo, len(rels))
	for i, r := range rels {
		out[i] = RelInfo{Name: r.Name, Attrs: append([]string(nil), r.Attrs...), Size: int64(r.Len())}
	}
	return out
}

// Shares is the hypercube share vector p over a fixed attribute list.
type Shares struct {
	Attrs []string
	P     []int
}

// NumCubes returns Π p_i.
func (s Shares) NumCubes() int {
	n := 1
	for _, p := range s.P {
		n *= p
	}
	return n
}

// AttrPos returns the index of attribute a, or -1.
func (s Shares) AttrPos(a string) int {
	for i, x := range s.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// Dup returns the replication factor of a relation: Π_{A ∉ attrs(R)} p_A —
// the number of cubes each tuple is sent to.
func (s Shares) Dup(relAttrs []string) int64 {
	d := int64(1)
	for i, a := range s.Attrs {
		if !containsAttr(relAttrs, a) {
			d *= int64(s.P[i])
		}
	}
	return d
}

// Frac returns the expected fraction of a relation landing on one cube:
// 1 / Π_{A ∈ attrs(R)} p_A.
func (s Shares) Frac(relAttrs []string) float64 {
	f := 1.0
	for i, a := range s.Attrs {
		if containsAttr(relAttrs, a) {
			f /= float64(s.P[i])
		}
	}
	return f
}

// String renders the share vector.
func (s Shares) String() string {
	return fmt.Sprintf("p=%v over %v (%d cubes)", s.P, s.Attrs, s.NumCubes())
}

func containsAttr(attrs []string, a string) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}

// TotalComm returns Σ_R |R| · dup(R, p): the total tuple copies shuffled —
// the numerator of costC in §III-B.
func TotalComm(rels []RelInfo, s Shares) int64 {
	var t int64
	for _, r := range rels {
		t += r.Size * s.Dup(r.Attrs)
	}
	return t
}

// LoadPerCube returns Σ_R |R| · frac(R, p): the expected tuple count one
// cube receives (the memory constraint's left-hand side, per cube).
func LoadPerCube(rels []RelInfo, s Shares) float64 {
	t := 0.0
	for _, r := range rels {
		t += float64(r.Size) * s.Frac(r.Attrs)
	}
	return t
}

// Config bounds the share search.
type Config struct {
	// Attrs is the global attribute list (every relation attr must appear).
	Attrs []string
	// NumServers is N*, and Π p: one cube per server.
	NumServers int
	// MemoryPerServer bounds expected tuples per server (0 = unbounded).
	MemoryPerServer int64
}

// Optimize picks the share vector minimizing total communication subject to
// Π p = NumServers and the memory bound (Eq. 3). Ties break toward lower
// per-server load, then toward the lexicographically larger p over
// cfg.Attrs: callers pass the join's traversal order, so among vectors that
// shuffle the same tuples the one partitioning the attributes visited first
// wins. A cube then owns a slice of the top of the search tree instead of
// re-walking all of it to filter at the bottom — the same communication,
// less computation. When the memory bound is unsatisfiable it is dropped and
// the minimum-load vector is returned (the run will be reported as
// memory-stressed by the engine, mirroring the paper's OOM failures).
func Optimize(rels []RelInfo, cfg Config) (Shares, error) {
	if cfg.NumServers <= 0 {
		cfg.NumServers = 1
	}
	n := len(cfg.Attrs)
	if n == 0 {
		return Shares{}, fmt.Errorf("hcube: no attributes")
	}
	for _, r := range rels {
		for _, a := range r.Attrs {
			if !containsAttr(cfg.Attrs, a) {
				return Shares{}, fmt.Errorf("hcube: relation %s attr %q not in global attrs %v", r.Name, a, cfg.Attrs)
			}
		}
	}
	type cand struct {
		s        Shares
		comm     int64
		load     float64
		feasible bool
	}
	var best, bestAny *cand
	better := func(a, b *cand) bool {
		if b == nil {
			return true
		}
		if a.comm != b.comm {
			return a.comm < b.comm
		}
		if math.Abs(a.load-b.load) > 1e-9 {
			return a.load < b.load
		}
		for i := range a.s.P {
			if a.s.P[i] != b.s.P[i] {
				return a.s.P[i] > b.s.P[i]
			}
		}
		return false
	}
	// Enumerate the factorizations of NumServers into n shares.
	p := make([]int, n)
	var rec func(i, prod int)
	rec = func(i, prod int) {
		if i == n {
			if prod != cfg.NumServers {
				return
			}
			s := Shares{Attrs: cfg.Attrs, P: append([]int(nil), p...)}
			c := &cand{s: s, comm: TotalComm(rels, s), load: LoadPerCube(rels, s)}
			c.feasible = cfg.MemoryPerServer <= 0 || c.load <= float64(cfg.MemoryPerServer)
			if c.feasible && better(c, best) {
				best = c
			}
			if bestAny == nil || c.load < bestAny.load-1e-9 || (math.Abs(c.load-bestAny.load) <= 1e-9 && better(c, bestAny)) {
				bestAny = c
			}
			return
		}
		for v := 1; prod*v <= cfg.NumServers; v++ {
			if (cfg.NumServers/prod)%v != 0 {
				continue
			}
			p[i] = v
			rec(i+1, prod*v)
		}
	}
	rec(0, 1)
	if best == nil {
		best = bestAny // p = (NumServers, 1, …, 1) always exists
	}
	return best.s, nil
}

// --- Coordinate math ---

// Strides returns the mixed-radix strides of the share vector: cube index
// = Σ coord_i × stride_i.
func (s Shares) Strides() []int {
	st := make([]int, len(s.P))
	acc := 1
	for i := range s.P {
		st[i] = acc
		acc *= s.P[i]
	}
	return st
}

// CoordsOf decodes a cube index into per-attribute coordinates.
func (s Shares) CoordsOf(cube int) []int {
	out := make([]int, len(s.P))
	for i, pv := range s.P {
		out[i] = cube % pv
		cube /= pv
	}
	return out
}

// RelPositions returns the positions in s.Attrs of a relation's attributes.
func (s Shares) RelPositions(relAttrs []string) []int {
	out := make([]int, len(relAttrs))
	for i, a := range relAttrs {
		p := s.AttrPos(a)
		if p < 0 {
			panic(fmt.Sprintf("hcube: attr %q not in shares %v", a, s.Attrs))
		}
		out[i] = p
	}
	return out
}

// DestCubes returns the cube indexes a tuple of a relation is replicated
// to: coordinates fixed to the tuple's hashes on the relation's attributes,
// free on all others.
func (s Shares) DestCubes(relPos []int, t relation.Tuple) []int {
	fixed := make(map[int]int, len(relPos))
	for i, p := range relPos {
		fixed[p] = relation.HashValue(t[i], s.P[p])
	}
	return s.matching(fixed)
}

// BlockSig returns the block signature of a tuple: the mixed-radix index of
// its hash coordinates over the relation's own attributes. Tuples sharing a
// signature form one block (§V's Pull/Merge grouping).
func (s Shares) BlockSig(relPos []int, t relation.Tuple) int {
	sig := 0
	stride := 1
	for i, p := range relPos {
		sig += relation.HashValue(t[i], s.P[p]) * stride
		stride *= s.P[p]
	}
	return sig
}

// NumBlocks returns the number of distinct block signatures of a relation:
// Π_{A ∈ attrs(R)} p_A.
func (s Shares) NumBlocks(relPos []int) int {
	n := 1
	for _, p := range relPos {
		n *= s.P[p]
	}
	return n
}

// BlockCubes returns the cubes matching a block signature.
func (s Shares) BlockCubes(relPos []int, sig int) []int {
	fixed := make(map[int]int, len(relPos))
	for _, p := range relPos {
		fixed[p] = sig % s.P[p]
		sig /= s.P[p]
	}
	return s.matching(fixed)
}

// matching enumerates cube indexes whose coordinates agree with fixed.
func (s Shares) matching(fixed map[int]int) []int {
	free := make([]int, 0, len(s.P))
	for i := range s.P {
		if _, ok := fixed[i]; !ok {
			free = append(free, i)
		}
	}
	total := 1
	for _, f := range free {
		total *= s.P[f]
	}
	strides := s.Strides()
	base := 0
	for p, c := range fixed {
		base += c * strides[p]
	}
	out := make([]int, 0, total)
	coords := make([]int, len(free))
	for {
		idx := base
		for i, f := range free {
			idx += coords[i] * strides[f]
		}
		out = append(out, idx)
		// Odometer increment.
		i := 0
		for ; i < len(free); i++ {
			coords[i]++
			if coords[i] < s.P[free[i]] {
				break
			}
			coords[i] = 0
		}
		if i == len(free) {
			break
		}
	}
	sort.Ints(out)
	return out
}

// cubeSig returns the one block signature of a relation that cube matches:
// the mixed-radix index of the cube's coordinates over the relation's
// attributes, as BlockSig computes it from a tuple's hashes.
func (s Shares) cubeSig(relPos []int, cube int) int {
	coords := s.CoordsOf(cube)
	sig, stride := 0, 1
	for _, p := range relPos {
		sig += coords[p] * stride
		stride *= s.P[p]
	}
	return sig
}
