package engine

import (
	"fmt"
	"strings"

	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/optimizer"
	"adj/internal/plan"
	"adj/internal/relation"
)

// This file holds the lowering pass: each engine's planner turns its
// planning artifact (GHD plan, attribute order, join order) into the
// physical plan.Program the shared IR interpreter executes. Everything
// engine-specific lives in its lower function; Prepare stamps the
// Program with the table name it was lowered for.

// lowerADJ lowers ADJ's co-optimized (or communication-first) GHD plan:
// per-bag pre-computation as distributed HashJoin chains canonicalized by
// a Project, one optimized Merge shuffle of the rewritten query Qi, and
// Leapfrog under the plan's valid attribute order.
func lowerADJ(q hypergraph.Query, rels []*relation.Relation, opt *optimizer.Plan) *plan.Program {
	prog := &plan.Program{Label: opt.String()}

	// Pre-computing: materialize each chosen bag with a chain of
	// distributed binary joins, then canonicalize the fragment schema to
	// the bag's sorted vertex order so HCube hashes columns consistently.
	bagNames := make(map[int]string)
	bagOps := make(map[int]int)
	for _, id := range opt.Precompute {
		bag := opt.Decomp.Bags[id]
		outName := optimizer.BagRelationName(opt.Decomp, id)
		bagNames[id] = outName
		accName := q.Atoms[bag.Atoms[0]].Name
		accAttrs := append([]string(nil), q.Atoms[bag.Atoms[0]].Attrs...)
		var chain []int
		for step, ai := range bag.Atoms[1:] {
			next := q.Atoms[ai]
			stepOut := outName
			if step < len(bag.Atoms)-2 {
				stepOut = outName + "~" + next.Name
			}
			outAttrs := joinedAttrs(accAttrs, next.Attrs)
			op := prog.Add(&plan.Op{
				Kind: plan.HashJoin, Phase: "precompute", Strategy: "binary",
				Inputs:      chainTail(chain),
				Left:        plan.Sig{Name: accName, Attrs: accAttrs},
				Right:       plan.Sig{Name: next.Name, Attrs: next.Attrs},
				Out:         plan.Sig{Name: stepOut, Attrs: outAttrs},
				BudgetLabel: "budget(precompute)",
			})
			chain = append(chain, op.ID)
			accName = stepOut
			accAttrs = outAttrs
		}
		canon := prog.Add(&plan.Op{
			Kind: plan.Project, Phase: "precompute/canon",
			Inputs: chainTail(chain),
			Left:   plan.Sig{Name: outName, Attrs: accAttrs},
			Out:    plan.Sig{Name: outName, Attrs: bag.Vertices},
		})
		bagOps[id] = canon.ID
	}

	// The rewritten query Qi's relation set, in bag order: pre-computed
	// bags contribute their materialized relation (size re-gathered at run
	// time), other bags their base relations.
	var refs []plan.RelRef
	var shuffleIns []int
	for _, bag := range opt.Decomp.Bags {
		if nm, ok := bagNames[bag.ID]; ok {
			refs = append(refs, plan.RelRef{Name: nm, Attrs: bag.Vertices, Dynamic: true})
			shuffleIns = append(shuffleIns, bagOps[bag.ID])
			continue
		}
		for _, ai := range bag.Atoms {
			r := rels[ai]
			refs = append(refs, plan.RelRef{Name: r.Name, Attrs: r.Attrs, Size: int64(r.Len())})
		}
	}

	sh := prog.Add(&plan.Op{
		Kind: plan.Shuffle, Phase: "shuffle",
		Inputs: shuffleIns, Rels: refs, Order: opt.AttrOrder,
		ShuffleKind: "merge", ReuseID: opt.String(),
		Cost: plan.Cost{Seconds: opt.Est.Communication},
	})
	bt := prog.Add(&plan.Op{Kind: plan.BuildTrie, Inputs: []int{sh.ID}, Order: opt.AttrOrder})
	lf := prog.Add(&plan.Op{
		Kind: plan.LeapfrogCube, Phase: "join", Strategy: "wcoj",
		Inputs: []int{bt.ID}, Order: opt.AttrOrder,
		BudgetLabel: "budget",
		Cost:        plan.Cost{Seconds: opt.Est.Computation},
	})
	prog.Add(&plan.Op{
		Kind: plan.Emit, Inputs: []int{lf.ID},
		Out: plan.Sig{Name: "out", Attrs: opt.AttrOrder},
	})
	return prog
}

// chainTail returns the last op of a chain as an input list (empty chain →
// no inputs).
func chainTail(chain []int) []int {
	if len(chain) == 0 {
		return nil
	}
	return []int{chain[len(chain)-1]}
}

// lowerHCubeJ lowers the one-round communication-first baseline: a single
// Push shuffle of every base relation (share optimization charged to the
// optimize phase, shares folded into the run's plan label) and plain — or
// level-cached — Leapfrog per cube.
func lowerHCubeJ(rels []*relation.Relation, opt *optimizer.Plan, cached bool) *plan.Program {
	prog := &plan.Program{Label: fmt.Sprintf("ord=%v", opt.AttrOrder)}
	infos := hcube.InfoOf(rels)
	refs := make([]plan.RelRef, len(infos))
	for i, ri := range infos {
		refs[i] = plan.RelRef{Name: ri.Name, Attrs: ri.Attrs, Size: ri.Size}
	}
	sh := prog.Add(&plan.Op{
		Kind: plan.Shuffle, Phase: "shuffle",
		Rels: refs, Order: opt.AttrOrder,
		ShuffleKind: "push", ChargeOptimize: true, LabelShares: true,
		Cost: plan.Cost{Seconds: opt.Est.Communication},
	})
	bt := prog.Add(&plan.Op{Kind: plan.BuildTrie, Inputs: []int{sh.ID}, Order: opt.AttrOrder})
	lf := prog.Add(&plan.Op{
		Kind: plan.LeapfrogCube, Phase: "join", Strategy: "wcoj",
		Inputs: []int{bt.ID}, Order: opt.AttrOrder, Cached: cached,
		BudgetLabel: "budget",
	})
	prog.Add(&plan.Op{
		Kind: plan.Emit, Inputs: []int{lf.ID},
		Out: plan.Sig{Name: "out", Attrs: opt.AttrOrder},
	})
	return prog
}

// lowerBinary lowers the SparkSQL-style baseline: the greedy pairwise
// order becomes a chain of distributed HashJoins shuffling every
// intermediate, then a gather of the final fragments.
func lowerBinary(q hypergraph.Query, rels []*relation.Relation, order []int) *plan.Program {
	names := make([]string, len(order))
	for i, idx := range order {
		names[i] = rels[idx].Name
	}
	prog := &plan.Program{Label: "pairwise: " + strings.Join(names, " ⋈ ")}

	accName := rels[order[0]].Name
	accAttrs := append([]string(nil), rels[order[0]].Attrs...)
	var chain []int
	for step, idx := range order[1:] {
		next := rels[idx]
		outName := fmt.Sprintf("I%d", step+1)
		outAttrs := joinedAttrs(accAttrs, next.Attrs)
		op := prog.Add(&plan.Op{
			Kind: plan.HashJoin, Phase: fmt.Sprintf("join%d", step+1), Strategy: "binary",
			Inputs:      chainTail(chain),
			Left:        plan.Sig{Name: accName, Attrs: accAttrs},
			Right:       plan.Sig{Name: next.Name, Attrs: next.Attrs},
			Out:         plan.Sig{Name: outName, Attrs: outAttrs},
			BudgetLabel: "budget(intermediate %s tuples)",
		})
		chain = append(chain, op.ID)
		accName = outName
		accAttrs = outAttrs
	}
	prog.Add(&plan.Op{
		Kind: plan.Emit, Inputs: chainTail(chain),
		From: accName, ProjectOnto: q.Attrs(),
		Out: plan.Sig{Name: "out", Attrs: q.Attrs()},
	})
	return prog
}

// lowerBigJoin lowers the multi-round WCOJ baseline: seed bindings with a
// Scatter of the first attribute's value list, then one Extend (propose)
// plus a Semijoin (verify) per other relation for every further
// attribute, the round's last op carrying the per-round binding budget.
func lowerBigJoin(q hypergraph.Query, rels []*relation.Relation, order []string) (*plan.Program, error) {
	prog := &plan.Program{Label: fmt.Sprintf("rounds over ord=%v", order)}
	last := prog.Add(&plan.Op{
		Kind: plan.Scatter, Phase: "round0", Attr: order[0],
		Out: plan.Sig{Name: "bindings", Attrs: order[:1]},
	})
	for d := 1; d < len(order); d++ {
		attr := order[d]
		prefix := order[:d]
		bound := order[:d+1]
		var active []int
		for i, r := range rels {
			if r.HasAttr(attr) {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			return nil, fmt.Errorf("bigjoin: attribute %q uncovered", attr)
		}
		// Proposer: smallest active relation; the rest verify.
		prop := active[0]
		for _, i := range active[1:] {
			if rels[i].Len() < rels[prop].Len() {
				prop = i
			}
		}
		phase := fmt.Sprintf("round%d", d)
		last = prog.Add(&plan.Op{
			Kind: plan.Extend, Phase: phase + "/propose", Strategy: "wcoj",
			Inputs: []int{last.ID},
			RelIdx: prop, Prefix: prefix, Attr: attr,
			Out:         plan.Sig{Name: "bindings", Attrs: bound},
			BudgetLabel: "budget",
		})
		vi := 0
		for _, ridx := range active {
			if ridx == prop {
				continue
			}
			last = prog.Add(&plan.Op{
				Kind: plan.Semijoin, Phase: fmt.Sprintf("%s/verify%d", phase, vi), Strategy: "wcoj",
				Inputs: []int{last.ID},
				RelIdx: ridx, Prefix: prefix, Attr: attr,
				Out:         plan.Sig{Name: "bindings", Attrs: bound},
				BudgetLabel: "budget",
			})
			vi++
		}
		// The surviving bindings of every round are bounded by the budget.
		last.CheckBudget = true
		last.Round = d
	}
	prog.Add(&plan.Op{
		Kind: plan.Emit, Inputs: []int{last.ID},
		From: "bindings", ProjectOnto: order,
		Out: plan.Sig{Name: "out", Attrs: order},
	})
	return prog, nil
}
