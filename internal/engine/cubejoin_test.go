package engine

import (
	"strings"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/relation"
)

// hcube.Optimize breaks share ties toward the attributes the join visits
// first. A tie is a tie on communication, so the triangle on 4 workers —
// where [1 2 2], [2 1 2] and [2 2 1] all tie — shuffles exactly the tuples
// and messages it did under the old lexicographically-smallest rule (3470
// and 48, pinned), and the rows are the oracle's in both run modes.
func TestShareTieBreakMovesNoTuple(t *testing.T) {
	q := hypergraph.Q1()
	rels := q.BindGraph(powerLawGraph(0.01, 3))
	want := relation.NaiveJoin(rels, q.Attrs())
	if want.Len() == 0 {
		t.Fatal("no triangles, the case tests nothing")
	}
	for _, sequential := range []bool{true, false} {
		cfg := smallCfg(4)
		cfg.Sequential = sequential
		cfg.CollectOutput = true
		rep, err := Run("ADJ", q, rels, cfg)
		if err != nil || rep.Failed {
			t.Fatalf("seq=%v: err %v, failed %q", sequential, err, rep.FailReason)
		}
		got := rep.Output.ProjectMulti(q.Attrs()...).Sort()
		if !got.Equal(want.Renamed(got.Name)) {
			t.Fatalf("seq=%v: %d rows, oracle has %d (sorted rows differ)", sequential, got.Len(), want.Len())
		}
		if rep.TuplesShuffled != 3470 || rep.Messages != 48 {
			t.Fatalf("seq=%v: shuffled %d tuples in %d messages, pinned 3470 in 48", sequential, rep.TuplesShuffled, rep.Messages)
		}
	}
	// HCubeJ prints the shares it ran under: whatever order its planner
	// picked, the partitioned attributes are the two it visits first.
	rep, err := Run("HCubeJ", q, rels, smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(rep.Plan, "shares=[2 2 1]") || rep.TuplesShuffled != 3470 {
		t.Fatalf("HCubeJ ran %q and shuffled %d tuples, want shares=[2 2 1] and 3470", rep.Plan, rep.TuplesShuffled)
	}
}
