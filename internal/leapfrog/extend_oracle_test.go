package leapfrog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"adj/internal/relation"
)

// filterExtend is Extend's contract computed from relation rows alone, with
// no trie, seek or intersection kernel in between: the values v of order[d]
// such that every relation containing order[d] holds a row agreeing with
// binding on its attributes before d and carrying v at order[d]. Sorted and
// duplicate-free; empty when no relation contains order[d].
func filterExtend(rels []*relation.Relation, order []string, binding []Value, d int) []Value {
	pos := make(map[string]int, len(order))
	for i, a := range order {
		pos[a] = i
	}
	var out map[Value]bool
	for _, r := range rels {
		col := r.AttrIndex(order[d])
		if col < 0 {
			continue
		}
		got := map[Value]bool{}
		cols := r.Columns()
	rows:
		for i := 0; i < r.Len(); i++ {
			for j, a := range r.Attrs {
				if p := pos[a]; p < d && cols[j][i] != binding[p] {
					continue rows
				}
			}
			if out == nil || out[cols[col][i]] {
				got[cols[col][i]] = true
			}
		}
		out = got
	}
	vals := make([]Value, 0, len(out))
	for v := range out {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	return vals
}

// valueLog is a Sink recording the values of the runs it is handed.
type valueLog struct {
	runs int
	vals []Value
}

func (l *valueLog) BeginRun([]Value)       { l.runs++ }
func (l *valueLog) AppendRun(vals []Value) { l.vals = append(l.vals, vals...) }

// oracleDomain draws one attribute's values. The shapes cover the roots a
// trie can have: under the size that gets a directory, dense, and crowded
// (a dense cluster beside far-apart outliers, so many values share a
// directory bucket), over negative values and the int64 extremes too.
type oracleDomain func(*rand.Rand) Value

var oracleDomains = []struct {
	name string
	draw oracleDomain
}{
	{"small", func(rng *rand.Rand) Value { return rng.Int63n(20) }},
	{"dense", func(rng *rand.Rand) Value { return 1000 + rng.Int63n(120) }},
	{"crowded", func(rng *rand.Rand) Value {
		if rng.Intn(4) > 0 {
			return rng.Int63n(60)
		}
		return rng.Int63n(1 << 40)
	}},
	{"signed", func(rng *rand.Rand) Value {
		switch rng.Intn(8) {
		case 0:
			return math.MinInt64 + rng.Int63n(4)
		case 1:
			return math.MaxInt64 - rng.Int63n(4)
		}
		return rng.Int63n(200) - 100
	}},
}

// oracleInstance is a random query shape over order: 2–4 relations of
// arity 1–3 (arity 0 never; an empty relation sometimes), every attribute
// covered, values from one domain per instance.
func oracleInstance(rng *rand.Rand, order []string, dom oracleDomain) []*relation.Relation {
	nrels := 2 + rng.Intn(3)
	var rels []*relation.Relation
	covered := map[string]bool{}
	for i := 0; i < nrels || len(covered) < len(order); i++ {
		arity := 1 + rng.Intn(min(3, len(order)))
		perm := rng.Perm(len(order))
		var attrs []string
		for _, p := range perm[:arity] {
			attrs = append(attrs, order[p])
		}
		if i >= nrels {
			// Cover the attributes no relation drew.
			for _, a := range order {
				if !covered[a] {
					attrs = []string{a}
					break
				}
			}
		}
		for _, a := range attrs {
			covered[a] = true
		}
		rows := 1 + rng.Intn(400)
		if rng.Intn(10) == 0 {
			rows = 0
		}
		r := relation.New(fmt.Sprintf("R%d", i), attrs...)
		row := make([]Value, len(attrs))
		for k := 0; k < rows; k++ {
			for j := range row {
				row[j] = dom(rng)
			}
			r.AppendTuple(row)
		}
		rels = append(rels, r)
	}
	return rels
}

// TestExtendMatchesRowFilter checks Extend and DrainLeaf against
// filterExtend on random instances, at bindings drawn without any
// depth-first walk: every depth in random sequence on one extender, bound
// values taken from the relations (present prefixes) or drawn fresh
// (mostly absent ones, below, inside and beyond the root's span), and the
// depth-0 call with a nil binding. DrainLeaf must hand the same values to a
// sink as one run, count them without a sink, and stop at a limit. A value
// Extend returned must survive deeper calls.
func TestExtendMatchesRowFilter(t *testing.T) {
	var deepHits int // probes below depth 0 with a non-empty answer
	for _, domain := range oracleDomains {
		name, dom := domain.name, domain.draw
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			order := []string{"a", "b", "c", "d", "e"}[:2+rng.Intn(4)]
			rels := oracleInstance(rng, order, dom)
			ext, err := NewExtender(BuildTries(rels, order), order)
			if err != nil {
				t.Fatal(err)
			}
			// A pool of bound values: every value in the data, the int64
			// extremes, and as many drawn from the domain that may or may
			// not occur.
			pool := []Value{math.MinInt64, -1, 0, math.MaxInt64}
			for _, r := range rels {
				for _, c := range r.Columns() {
					pool = append(pool, c...)
				}
			}
			for range len(pool)/4 + 8 {
				pool = append(pool, dom(rng))
			}
			held := make([][]Value, len(order)) // Extend's last result per depth
			want := make([][]Value, len(order))
			for probe := 0; probe < 80; probe++ {
				d := rng.Intn(len(order))
				var binding []Value
				if d > 0 || rng.Intn(2) == 0 {
					binding = make([]Value, len(order))
					for i := range d {
						binding[i] = pool[rng.Intn(len(pool))]
					}
				}
				exp := filterExtend(rels, order, binding, d)
				where := func() string {
					return fmt.Sprintf("%s seed %d order %v depth %d binding %v", name, seed, order, d, binding)
				}
				got, _ := ext.Extend(binding, d)
				if !slices.Equal(got, exp) && !(len(got) == 0 && len(exp) == 0) {
					t.Fatalf("%s: Extend %v, rows give %v", where(), got, exp)
				}
				held[d], want[d] = got, exp
				if d > 0 && len(exp) > 0 {
					deepHits++
				}
				for above := range d {
					if held[above] != nil && !slices.Equal(held[above], want[above]) {
						t.Fatalf("%s: depth %d's result changed under a deeper Extend", where(), above)
					}
				}
				var log valueLog
				if n, _ := ext.DrainLeaf(binding, d, -1, &log); n != int64(len(exp)) || !slices.Equal(log.vals, exp) && len(exp) > 0 {
					t.Fatalf("%s: DrainLeaf took %d values %v, rows give %v", where(), n, log.vals, exp)
				}
				if log.runs > 1 || (len(exp) > 0 && log.runs == 0) {
					t.Fatalf("%s: DrainLeaf began %d runs for %d values", where(), log.runs, len(exp))
				}
				if n, _ := ext.DrainLeaf(binding, d, -1, nil); n != int64(len(exp)) {
					t.Fatalf("%s: sinkless DrainLeaf counted %d, rows give %d", where(), n, len(exp))
				}
				limit := rng.Int63n(int64(len(exp)) + 2)
				log = valueLog{}
				take := min(limit, int64(len(exp)))
				if n, _ := ext.DrainLeaf(binding, d, limit, &log); n != take || !slices.Equal(log.vals, exp[:take]) && take > 0 {
					t.Fatalf("%s: DrainLeaf at limit %d took %d values %v, rows give %v", where(), limit, n, log.vals, exp[:take])
				}
			}
		}
	}
	if deepHits < 2000 {
		t.Fatalf("%d non-empty answers below depth 0: the instances no longer reach the deep levels", deepHits)
	}
}
