package leapfrog

import (
	"errors"
	"math/rand"
	"testing"

	"adj/internal/relation"
	"adj/internal/testutil"
)

// CachedJoin with the streaming leaf drain (cache disabled, and cache
// saturated by a tiny budget) must produce exactly the plain joiner's
// results and output tuples on random instances.
func TestCachedLeafDrainEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		q, rels := testutil.RandQueryInstance(rng, 3, 4, 60, 10)
		order := q.Attrs()
		tries := BuildTries(rels, order)

		collect := func(run func(Options) (Stats, error)) (int64, string) {
			out := relation.New("out", order...)
			st, err := run(Options{Sink: relation.NewColumnWriter(out)})
			if err != nil {
				t.Fatal(err)
			}
			return st.Results, out.SortDedup().String()
		}

		wantN, wantOut := collect(func(o Options) (Stats, error) { return Join(tries, order, o) })
		for _, budget := range []int{0, 1, 1 << 20} {
			cj := NewCachedJoin(tries, order, budget)
			gotN, gotOut := collect(cj.Run)
			if gotN != wantN || gotOut != wantOut {
				t.Fatalf("iter=%d cacheBudget=%d: cached join diverged: got %d results, want %d",
					iter, budget, gotN, wantN)
			}
		}
	}
}

// drainLeafVals runs DrainLeaf at depth 1 of a two-attribute order through
// a column writer and returns the drained leaf values with the count.
func drainLeafVals(ext *Extender, binding []Value, limit int64) ([]Value, int64) {
	out := relation.New("out", "x", "y")
	cnt, _ := ext.DrainLeaf(binding, 1, limit, relation.NewColumnWriter(out))
	return out.Columns()[1], cnt
}

// DrainLeaf must intersect correctly for rings of 1, 2 and 3+ lists: run
// the cached join over queries whose leaf attribute appears in varying
// numbers of relations and cross-check against the extender's
// materializing path.
func TestDrainLeafMatchesExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 30; iter++ {
		// k relations all over (x, y): the leaf level intersects k lists.
		k := 1 + rng.Intn(4)
		var rels []*relation.Relation
		for i := 0; i < k; i++ {
			r := relation.New("R"+string(rune('0'+i)), "x", "y")
			for j := 0; j < 80; j++ {
				r.Append(rng.Int63n(8), rng.Int63n(40))
			}
			rels = append(rels, r)
		}
		order := []string{"x", "y"}
		tries := BuildTries(rels, order)
		ext, err := NewExtender(tries, order)
		if err != nil {
			t.Fatal(err)
		}
		binding := make([]Value, 2)
		firsts, _ := ext.Extend(binding, 0)
		for _, x := range firsts {
			binding[0] = x
			want, _ := ext.Extend(binding, 1)
			got, cnt := drainLeafVals(ext, binding, -1)
			if int(cnt) != len(want) {
				t.Fatalf("iter=%d k=%d x=%d: drained %d values, Extend found %d", iter, k, x, cnt, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("iter=%d k=%d x=%d: value %d: got %d want %d", iter, k, x, i, got[i], want[i])
				}
			}
			// Limited drain returns a prefix.
			if len(want) > 1 {
				lim := int64(len(want) / 2)
				pre, cnt := drainLeafVals(ext, binding, lim)
				if cnt != lim {
					t.Fatalf("limited drain returned %d, want %d", cnt, lim)
				}
				for i := range pre {
					if pre[i] != want[i] {
						t.Fatalf("limited drain diverged at %d", i)
					}
				}
			}
		}
	}
}

// Budget failures must still surface from the drained leaf path.
func TestCachedDrainRespectsBudget(t *testing.T) {
	r := relation.New("R", "a", "b")
	s := relation.New("S", "b", "c")
	for i := relation.Value(0); i < 1000; i++ {
		r.Append(1, i%3)
		s.Append(i%3, i)
	}
	order := []string{"a", "b", "c"}
	tries := BuildTries([]*relation.Relation{r, s}, order)
	cj := NewCachedJoin(tries, order, 0) // caching off → leaf drains
	st, err := cj.Run(Options{Budget: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v want ErrBudget", err)
	}
	if total := st.TotalWithResults(); total > 30 {
		t.Fatalf("did %d work units before budget bail-out (budget 10)", total)
	}
}
