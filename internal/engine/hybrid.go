package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"adj/internal/costmodel"
	"adj/internal/hypergraph"
	"adj/internal/optimizer"
	"adj/internal/plan"
	"adj/internal/relation"
)

// earSelectivity gates semijoin pre-reduction: an ear reduces a core
// relation only when it holds at most this fraction of the core
// relation's distinct join keys (fewer surviving keys → the reduction
// pays for its exchange).
const earSelectivity = 0.75

// lowerHybrid is the Hybrid engine's planner: the query hypergraph is split
// by GYO ear decomposition into a cyclic core and acyclic ears, the
// sampling estimator prices a pure worst-case-optimal plan against the
// hybrid split, and the cheaper strategy wins. A hybrid plan
// semijoin-reduces core relations by their selective ears, runs the core as
// one optimized Merge shuffle + Leapfrog (kept worker-resident), then folds
// the ears back in with distributed hash joins — mixing both execution
// strategies inside a single plan, which only the shared IR makes
// expressible.
func lowerHybrid(q hypergraph.Query, rels []*relation.Relation, cfg Config) (*plan.Program, error) {
	params := defaultParams(cfg)
	opt, err := newOptimizer(q, rels, cfg)
	if err != nil {
		return nil, err
	}
	fullPlan, err := opt.CommunicationFirst()
	if err != nil {
		return nil, err
	}
	if err := cfg.Ctx.Err(); err != nil {
		return nil, err
	}
	wcojCost := fullPlan.Est.Communication + orderCompCost(opt, fullPlan.AttrOrder, params)
	// The pure worst-case-optimal route is ADJ's lowering of the
	// communication-first plan, under Hybrid's label.
	wcoj := func(why string) *plan.Program {
		prog := lowerADJ(q, rels, fullPlan)
		prog.Label = fmt.Sprintf("hybrid: wcoj ord=%v %s", fullPlan.AttrOrder, why)
		return prog
	}

	core, ears := earDecompose(q)

	// Fully acyclic: the whole query is ears. Route to pairwise hash joins
	// when the estimator prices them under the leapfrog, mirroring the
	// size-thresholded strategy switches unified architectures use.
	if len(core) == 0 {
		binOrder := binaryJoinOrder(rels)
		first := rels[binOrder[0]]
		binCost := chainCost(opt, q, first.Attrs, float64(first.Len()), relsAt(rels, binOrder[1:]), params)
		if binCost < wcojCost {
			prog := lowerBinary(q, rels, binOrder)
			prog.Label = fmt.Sprintf("hybrid: binary (acyclic; binary=%.3gs wcoj=%.3gs) %s",
				binCost, wcojCost, prog.Label)
			return prog, nil
		}
		return wcoj(fmt.Sprintf("(acyclic; wcoj=%.3gs binary=%.3gs)", wcojCost, binCost)), nil
	}

	// Fully cyclic: nothing to split; run the optimized pure WCOJ plan.
	if len(ears) == 0 {
		return wcoj("(cyclic core only)"), nil
	}

	// Mixed: price the split — Leapfrog over the cyclic core, hash joins
	// over the ears — against the pure strategies.
	//
	// Ears join back in reverse removal order: each ear's GYO witness is
	// the core or an ear removed after it, so the chain stays connected.
	tail := make([]int, len(ears))
	for i, ai := range ears {
		tail[len(ears)-1-i] = ai
	}

	// Selective-ear semijoin pre-reductions, materialized locally now:
	// planning already scans local relations (binaryJoinOrder's distinct
	// counts), and the reduced relations give the core optimizer honest
	// sizes and orders — pricing the unreduced core would bias the router
	// toward the pure plan the reductions exist to beat. Execution redoes
	// the reductions distributedly; this copy only feeds the estimator.
	reds, coreRels := planReductions(q, rels, core, tail)

	coreQ := hypergraph.Query{Name: q.Name, Atoms: make([]hypergraph.Atom, len(core))}
	for i, ai := range core {
		coreQ.Atoms[i] = q.Atoms[ai]
	}
	coreOpt, err := newOptimizer(coreQ, coreRels, cfg)
	if err != nil {
		return nil, err
	}
	corePlan, err := coreOpt.CommunicationFirst()
	if err != nil {
		return nil, err
	}
	if err := cfg.Ctx.Err(); err != nil {
		return nil, err
	}

	coreCost := corePlan.Est.Communication + orderCompCost(coreOpt, corePlan.AttrOrder, params)
	redCost := reductionCost(reds, rels, params)
	tailCost := chainCost(opt, q, corePlan.AttrOrder, coreOpt.SubsetSize(corePlan.AttrOrder), relsAt(rels, tail), params)
	hybridCost := redCost + coreCost + tailCost

	if wcojCost <= hybridCost {
		return wcoj(fmt.Sprintf("(wcoj=%.3gs hybrid=%.3gs)", wcojCost, hybridCost)), nil
	}

	return buildHybridProgram(q, rels, core, tail, reds, corePlan, wcojCost, hybridCost), nil
}

// reduction is one planned semijoin pre-reduction: core relation inName
// (the atom's relation or a previous reduction's output) shrunk by the
// ear at atom index earIdx on their shared attributes.
type reduction struct {
	coreIdx int // index into the core slice
	earIdx  int // atom index of the reducing ear
	inName  string
	outName string
	shared  []string
	est     int64 // exact local size of the reduced relation
}

// planReductions walks core × ears, chains every selective reduction and
// returns the plan plus the locally-materialized reduced core relations
// (for estimation only; unreduced cores pass through unchanged).
func planReductions(q hypergraph.Query, rels []*relation.Relation, core, tail []int) ([]reduction, []*relation.Relation) {
	var reds []reduction
	coreRels := make([]*relation.Relation, len(core))
	for i, ai := range core {
		coreRels[i] = rels[ai]
	}
	for i := range coreRels {
		name := q.Atoms[core[i]].Name
		for _, ei := range tail {
			ear := rels[ei]
			shared := sharedAttrs(coreRels[i].Attrs, ear.Attrs)
			if len(shared) == 0 {
				continue
			}
			if !earIsSelective(coreRels[i], ear, shared) {
				continue
			}
			reduced := coreRels[i].Semijoin(ear, shared)
			outName := name + "⋉" + ear.Name
			reduced.Name = outName
			reds = append(reds, reduction{
				coreIdx: i, earIdx: ei, inName: name, outName: outName,
				shared: shared, est: int64(reduced.Len()),
			})
			coreRels[i] = reduced
			name = outName
		}
	}
	return reds, coreRels
}

// reductionCost prices the planned reductions: each ships the core side
// plus the ear's distinct keys and materializes the survivors.
func reductionCost(reds []reduction, rels []*relation.Relation, p costmodel.Params) float64 {
	cost := 0.0
	for _, rd := range reds {
		if p.Alpha > 0 {
			cost += (float64(rels[rd.earIdx].Len()) + 2*float64(rd.est)) / p.Alpha
		}
	}
	return cost
}

// buildHybridProgram lowers the chosen split: the planned semijoin
// pre-reductions, the core's cube join kept worker-resident, then the ear
// hash-join chain and the final gather.
func buildHybridProgram(q hypergraph.Query, rels []*relation.Relation,
	core, tail []int, reds []reduction, corePlan *optimizer.Plan, wcojCost, hybridCost float64) *plan.Program {

	coreNames := make([]string, len(core))
	for i, ai := range core {
		coreNames[i] = q.Atoms[ai].Name
	}
	earNames := make([]string, len(tail))
	ears := make([]plan.Sig, len(tail))
	for i, ai := range tail {
		earNames[i] = q.Atoms[ai].Name
		ears[i] = plan.Sig{Name: q.Atoms[ai].Name, Attrs: q.Atoms[ai].Attrs}
	}
	label := fmt.Sprintf("hybrid: core=[%s] ord=%v ⋈ ears=[%s] (hybrid=%.3gs wcoj=%.3gs)",
		strings.Join(coreNames, " "), corePlan.AttrOrder, strings.Join(earNames, " "),
		hybridCost, wcojCost)
	prog := &plan.Program{Label: label}

	// Semijoin pre-reduction ops, replaying the plan-time decisions: shrink
	// a core relation by a directly connected ear when the ear is selective
	// on their shared attributes. Always sound — the ear joins back in
	// later, so tuples the reduction drops could never reach the output.
	// after[i] is the reduction op that last produced core relation i.
	refs := make([]plan.RelRef, len(core))
	after := make([][]int, len(core))
	for i, ai := range core {
		refs[i] = plan.RelRef{Name: q.Atoms[ai].Name, Attrs: q.Atoms[ai].Attrs, Size: int64(rels[ai].Len())}
	}
	for n, rd := range reds {
		r := &refs[rd.coreIdx]
		ear := rels[rd.earIdx]
		op := prog.Add(&plan.Op{
			Kind: plan.Semijoin, Phase: fmt.Sprintf("precompute/reduce%d", n+1),
			Inputs: after[rd.coreIdx],
			Left:   plan.Sig{Name: r.Name, Attrs: r.Attrs},
			Right:  plan.Sig{Name: ear.Name, Attrs: ear.Attrs},
			Out:    plan.Sig{Name: rd.outName, Attrs: r.Attrs},
			Cost:   plan.Cost{Card: float64(rd.est)},
			Note:   "selective ear pre-reduction",
		})
		*r = plan.RelRef{Name: rd.outName, Attrs: r.Attrs, Size: rd.est, Dynamic: true}
		after[rd.coreIdx] = []int{op.ID}
	}

	// The core's cube join, outputs kept worker-resident as ~core, then
	// the ears fold back in with distributed hash joins.
	lf := addCubeJoin(prog, plan.Op{
		Inputs: slices.Concat(after...), Rels: refs, Order: corePlan.AttrOrder,
		ShuffleKind: "merge", ReuseID: label,
		Cost: plan.Cost{Seconds: corePlan.Est.Communication},
	}, plan.Op{StoreAs: "~core"})
	addJoinChain(prog, q, plan.Sig{Name: "~core", Attrs: slices.Clone(corePlan.AttrOrder)}, []int{lf.ID}, ears)
	return prog
}

// earIsSelective reports whether ear's distinct key set on the shared
// attributes is small relative to the core relation's — the plan-time
// proxy for "most core tuples drop".
func earIsSelective(coreRel, ear *relation.Relation, shared []string) bool {
	earKeys := ear.ProjectMulti(shared...).SortDedup().Len()
	coreKeys := coreRel.ProjectMulti(shared...).SortDedup().Len()
	if coreKeys == 0 {
		return false
	}
	return float64(earKeys) < earSelectivity*float64(coreKeys)
}

// orderCompCost prices Leapfrog under an attribute order: the sum of
// estimated partial-binding counts over the order's proper prefixes,
// converted to seconds at the base extension rate.
func orderCompCost(opt *optimizer.Optimizer, order []string, p costmodel.Params) float64 {
	cost := 0.0
	for i := 1; i < len(order); i++ {
		cost += costmodel.ExtendCost(opt.SubsetSize(order[:i]), p.BetaBase, p.NumServers)
	}
	return cost
}

// chainCost prices a left-deep hash-join chain: starting from an input
// over attrs of card tuples, each step joins the next relation, shuffling
// both inputs plus the estimated output at the network rate and probing at
// the join rate.
func chainCost(opt *optimizer.Optimizer, q hypergraph.Query, attrs []string, card float64,
	rights []*relation.Relation, p costmodel.Params) float64 {

	cost := 0.0
	for _, r := range rights {
		attrs = joinedAttrs(attrs, r.Attrs)
		out := opt.SubsetSize(queryAttrsIn(q, attrs))
		comm := 0.0
		if p.Alpha > 0 {
			comm = (card + float64(r.Len()) + out) / p.Alpha
		}
		cost += comm + costmodel.ExtendCost(out, p.JoinRate, p.NumServers)
		card = out
	}
	return cost
}

// relsAt returns the relations at the given indexes.
func relsAt(rels []*relation.Relation, idx []int) []*relation.Relation {
	out := make([]*relation.Relation, len(idx))
	for i, ix := range idx {
		out[i] = rels[ix]
	}
	return out
}

// queryAttrsIn returns the members of set in the query's canonical
// attribute order (SubsetSize keys are order-independent, but a canonical
// order keeps the memo hits aligned with the optimizer's own probes).
func queryAttrsIn(q hypergraph.Query, set []string) []string {
	in := make(map[string]bool, len(set))
	for _, a := range set {
		in[a] = true
	}
	var out []string
	for _, a := range q.Attrs() {
		if in[a] {
			out = append(out, a)
		}
	}
	return out
}

// earDecompose runs GYO ear removal on the query hypergraph: an atom is
// an ear when every attribute it holds is either exclusive to it or
// contained in a single witness atom still alive. Repeated removal leaves
// the cyclic core (empty for α-acyclic queries). Ears are returned in
// removal order; the core in atom order.
func earDecompose(q hypergraph.Query) (core, ears []int) {
	n := len(q.Atoms)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	left := n
	for left > 1 {
		removed := -1
		// Attribute occurrence counts among live atoms.
		occ := make(map[string]int)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for _, a := range q.Atoms[i].Attrs {
				occ[a]++
			}
		}
		for i := 0; i < n && removed < 0; i++ {
			if !alive[i] {
				continue
			}
			var sharedA []string
			for _, a := range q.Atoms[i].Attrs {
				if occ[a] > 1 {
					sharedA = append(sharedA, a)
				}
			}
			if len(sharedA) == 0 {
				removed = i // isolated atom: trivially an ear
				break
			}
			for j := 0; j < n; j++ {
				if j == i || !alive[j] {
					continue
				}
				if containsAll(q.Atoms[j].Attrs, sharedA) {
					removed = i
					break
				}
			}
		}
		if removed < 0 {
			break
		}
		alive[removed] = false
		ears = append(ears, removed)
		left--
	}
	if left == 1 {
		// The last atom standing is always an ear: the query was acyclic.
		for i := 0; i < n; i++ {
			if alive[i] {
				alive[i] = false
				ears = append(ears, i)
			}
		}
		left = 0
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			core = append(core, i)
		}
	}
	sort.Ints(core)
	return core, ears
}

func containsAll(attrs, want []string) bool {
	for _, w := range want {
		found := false
		for _, a := range attrs {
			if a == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
