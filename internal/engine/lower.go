package engine

import (
	"fmt"
	"slices"
	"strings"

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
// a Project, then the cube join of the rewritten query Qi: one optimized
// Merge shuffle and Leapfrog under the plan's valid attribute order.
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
		acc := plan.Sig{Name: q.Atoms[bag.Atoms[0]].Name, Attrs: slices.Clone(q.Atoms[bag.Atoms[0]].Attrs)}
		var after []int
		for step, ai := range bag.Atoms[1:] {
			next := q.Atoms[ai]
			out := plan.Sig{Name: outName, Attrs: joinedAttrs(acc.Attrs, next.Attrs)}
			if step < len(bag.Atoms)-2 {
				out.Name = outName + "~" + next.Name
			}
			op := prog.Add(&plan.Op{
				Kind: plan.HashJoin, Phase: "precompute", Inputs: after,
				Left: acc, Right: plan.Sig{Name: next.Name, Attrs: next.Attrs}, Out: out,
				BudgetLabel: "budget(precompute)",
			})
			after, acc = []int{op.ID}, out
		}
		canon := prog.Add(&plan.Op{
			Kind: plan.Project, Phase: "precompute/canon",
			Inputs: after, Left: acc,
			Out: plan.Sig{Name: outName, Attrs: bag.Vertices},
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
	addCubeJoin(prog, plan.Op{
		Inputs: shuffleIns, Rels: refs, Order: opt.AttrOrder,
		ShuffleKind: "merge", ReuseID: opt.String(),
		Cost: plan.Cost{Seconds: opt.Est.Communication},
	}, plan.Op{Cost: plan.Cost{Seconds: opt.Est.Computation}})
	return prog
}

// addCubeJoin appends the one-round cube join every HCube engine shares:
// the Shuffle sh, a LeapfrogCube lf under the shuffle's order over the
// cubes it placed, and — unless lf keeps its outputs worker-resident
// (StoreAs) — the Emit of the cube outputs. It returns the LeapfrogCube.
func addCubeJoin(prog *plan.Program, sh, lf plan.Op) *plan.Op {
	sh.Kind, sh.Phase = plan.Shuffle, "shuffle"
	shuffle := prog.Add(&sh)
	lf.Kind, lf.Phase, lf.Inputs, lf.Order = plan.LeapfrogCube, "join", []int{shuffle.ID}, sh.Order
	lf.BudgetLabel = "budget"
	cube := prog.Add(&lf)
	if lf.StoreAs == "" {
		prog.Add(&plan.Op{Kind: plan.Emit, Inputs: []int{cube.ID}, Out: plan.Sig{Name: "out", Attrs: sh.Order}})
	}
	return cube
}

// lowerHCubeJ lowers the one-round communication-first baseline: a single
// Push shuffle of every base relation (share optimization charged to the
// optimize phase, shares folded into the run's plan label) and plain — or
// level-cached — Leapfrog per cube.
func lowerHCubeJ(rels []*relation.Relation, opt *optimizer.Plan, cached bool) *plan.Program {
	prog := &plan.Program{Label: fmt.Sprintf("ord=%v", opt.AttrOrder)}
	refs := make([]plan.RelRef, len(rels))
	for i, r := range rels {
		refs[i] = plan.RelRef{Name: r.Name, Attrs: slices.Clone(r.Attrs), Size: int64(r.Len())}
	}
	addCubeJoin(prog, plan.Op{
		Rels: refs, Order: opt.AttrOrder,
		ShuffleKind: "push", ChargeOptimize: true, LabelShares: true,
		Cost: plan.Cost{Seconds: opt.Est.Communication},
	}, plan.Op{Cached: cached})
	return prog
}

// lowerBinary lowers the SparkSQL-style baseline: the greedy pairwise
// order becomes a chain of distributed HashJoins shuffling every
// intermediate, then a gather of the final fragments.
func lowerBinary(q hypergraph.Query, rels []*relation.Relation, order []int) *plan.Program {
	names := make([]string, len(order))
	rights := make([]plan.Sig, len(order)-1)
	for i, idx := range order {
		names[i] = rels[idx].Name
		if i > 0 {
			rights[i-1] = plan.Sig{Name: rels[idx].Name, Attrs: rels[idx].Attrs}
		}
	}
	prog := &plan.Program{Label: "pairwise: " + strings.Join(names, " ⋈ ")}
	first := rels[order[0]]
	addJoinChain(prog, q, plan.Sig{Name: first.Name, Attrs: slices.Clone(first.Attrs)}, nil, rights)
	return prog
}

// addJoinChain appends the left-deep hash-join chain SparkSQL and Hybrid's
// ears run: acc ⋈ rights[0] ⋈ rights[1] ⋈ …, step i a distributed HashJoin
// into I<i> under phase join<i>, the first step reading the ops in after;
// then the Emit that gathers the last intermediate, projected onto the
// query's attributes.
func addJoinChain(prog *plan.Program, q hypergraph.Query, acc plan.Sig, after []int, rights []plan.Sig) {
	for step, right := range rights {
		out := plan.Sig{Name: fmt.Sprintf("I%d", step+1), Attrs: joinedAttrs(acc.Attrs, right.Attrs)}
		op := prog.Add(&plan.Op{
			Kind: plan.HashJoin, Phase: fmt.Sprintf("join%d", step+1), Inputs: after,
			Left: acc, Right: right, Out: out,
			BudgetLabel: "budget(intermediate %s tuples)",
		})
		after, acc = []int{op.ID}, out
	}
	prog.Add(&plan.Op{
		Kind: plan.Emit, Inputs: after,
		From: acc.Name, ProjectOnto: q.Attrs(),
		Out: plan.Sig{Name: "out", Attrs: q.Attrs()},
	})
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
			Kind: plan.Extend, Phase: phase + "/propose",
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
				Kind: plan.Semijoin, Phase: fmt.Sprintf("%s/verify%d", phase, vi),
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
