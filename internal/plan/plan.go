// Package plan defines the physical plan IR every engine compiles to: a
// DAG of typed operators over worker-resident relations. Engines are
// *planners* — they lower a query into a Program — and a single shared
// interpreter (internal/engine's runProgram) walks the DAG on the resident
// cluster. The IR is what lets one plan mix execution strategies: a
// selective acyclic fragment can run as HashJoin/Semijoin ops while the
// cyclic core runs as a Shuffle → LeapfrogCube cube join. An op's strategy
// follows from its kind — LeapfrogCube, Extend and a verify Semijoin are
// worst-case optimal ("wcoj"), HashJoin and a reduction Semijoin binary —
// and Tree prints it beside the op.
//
// The package is deliberately dependency-free: operators reference
// relations by signature (name + attribute schema) and carry plan-time
// cost annotations, never runtime handles. That keeps Programs cacheable
// (a PreparedQuery stores one per (query fingerprint, stats epoch)),
// printable (Tree renders the operator DAG for Explain), and comparable in
// tests.
package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the physical operators.
type Kind uint8

const (
	// Shuffle is one HCube all-to-all exchange: the listed relations are
	// hash-partitioned into hypercubes on Order, with shares optimized at
	// run time (sizes marked Dynamic are re-gathered from worker
	// fragments first).
	Shuffle Kind = iota
	// LeapfrogCube runs the worst-case-optimal Leapfrog join under Order
	// on every worker, over the one cube the worker owns. Its one input is
	// the Shuffle that placed the cubes; each worker builds a block's trie
	// at its first use.
	LeapfrogCube
	// HashJoin is one distributed binary hash join Left ⋈ Right → Out:
	// both sides are repartitioned on their shared attributes and joined
	// locally.
	HashJoin
	// Semijoin reduces a relation by another: Left ⋉ Right → Out. With
	// Attr set it is a BigJoin verify round instead (bindings filtered
	// against the relation at RelIdx on Prefix+Attr).
	Semijoin
	// Project replaces the worker fragments of Left with their projection
	// onto Out.Attrs (schema canonicalization for materialized bags).
	Project
	// Emit terminates the plan: it counts (and, when requested,
	// materializes) the result — either the LeapfrogCube input's cube
	// outputs, or the worker fragments of the From relation projected
	// onto Project attributes.
	Emit
	// Scatter seeds BigJoin's round 0: the global value list of Attr is
	// distributed in contiguous splits as the initial bindings.
	Scatter
	// Extend is one BigJoin propose round: every binding over Prefix is
	// extended with the candidate values the proposer relation (RelIdx)
	// holds for Attr.
	Extend
)

// String names the operator kind.
func (k Kind) String() string {
	switch k {
	case Shuffle:
		return "Shuffle"
	case LeapfrogCube:
		return "LeapfrogCube"
	case HashJoin:
		return "HashJoin"
	case Semijoin:
		return "Semijoin"
	case Project:
		return "Project"
	case Emit:
		return "Emit"
	case Scatter:
		return "Scatter"
	case Extend:
		return "Extend"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Sig is a relation signature: the name and attribute schema under which
// worker fragments are stored and looked up.
type Sig struct {
	Name  string
	Attrs []string
}

// String renders "name(a,b,c)".
func (s Sig) String() string {
	return s.Name + "(" + strings.Join(s.Attrs, ",") + ")"
}

// RelRef names one shuffle participant. Dynamic marks relations
// materialized by upstream ops (pre-computed bags, semijoin-reduced
// inputs) whose sizes must be re-gathered from worker fragments at run
// time; static refs carry the plan-time size.
type RelRef struct {
	Name    string
	Attrs   []string
	Size    int64
	Dynamic bool
}

// Cost is a plan-time cost annotation. Zero values mean "not estimated".
type Cost struct {
	// Card is the estimated output cardinality (tuples).
	Card float64
	// Seconds is the modeled cost in seconds, when the cost model priced
	// the op.
	Seconds float64
}

func (c Cost) String() string {
	var parts []string
	if c.Card > 0 {
		parts = append(parts, fmt.Sprintf("card≈%.3g", c.Card))
	}
	if c.Seconds > 0 {
		parts = append(parts, fmt.Sprintf("est %.3gs", c.Seconds))
	}
	return strings.Join(parts, " ")
}

// Op is one physical operator. It is a tagged union: Kind selects which
// fields are meaningful (see the Kind constants). Every op carries the
// metrics phase its work is charged to, the IDs of the ops producing its
// inputs, its output signature, and optional cost annotations.
type Op struct {
	ID     int
	Kind   Kind
	Phase  string
	Inputs []int
	Out    Sig
	Cost   Cost
	Note   string // free-form annotation for Explain

	// Shuffle
	Rels []RelRef
	// Order: the shuffle/trie/Leapfrog attribute order.
	Order []string
	// ShuffleKind is "merge", or "push" (also when empty).
	ShuffleKind string
	// ChargeOptimize charges the run-time share optimization to the
	// optimize phase (the HCubeJ family's accounting).
	ChargeOptimize bool
	// LabelShares amends the run report's plan label with the chosen
	// shares (HCubeJ's "ord=... shares=..." rendering).
	LabelShares bool
	// ReuseID seeds the provenance signature of relations this shuffle
	// moves that are not session-registered content (materialized bags).
	ReuseID string

	// LeapfrogCube
	Cached bool // use the level-cached Leapfrog (HCubeJ+Cache)
	// StoreAs keeps each worker's cube outputs resident under this name
	// (feeding downstream HashJoin ops) instead of folding them at the
	// coordinator.
	StoreAs string

	// HashJoin / Semijoin / Project
	Left  Sig
	Right Sig

	// BigJoin rounds (Scatter / Extend / Semijoin-with-Attr)
	Attr   string
	Prefix []string
	RelIdx int
	Round  int

	// BudgetLabel is the Report.FailReason when this op exceeds the work
	// budget; a single "%s" verb receives the size that passed it.
	BudgetLabel string
	// CheckBudget re-checks Out's global size against the budget after
	// the op completes (BigJoin's per-round binding cap).
	CheckBudget bool

	// Emit
	From        string   // source relation; "" reads the LeapfrogCube input
	ProjectOnto []string // projection applied when materializing output
}

// label renders the op's one-line description for Tree.
func (op *Op) label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s", op.ID, op.Kind)
	switch op.Kind {
	case Shuffle:
		names := make([]string, len(op.Rels))
		for i, r := range op.Rels {
			names[i] = r.Name
		}
		kind := op.ShuffleKind
		if kind == "" {
			kind = "default"
		}
		fmt.Fprintf(&b, " %s rels=[%s] ord=%v", kind, strings.Join(names, " "), op.Order)
	case LeapfrogCube:
		fmt.Fprintf(&b, " ord=%v", op.Order)
		if op.Cached {
			b.WriteString(" cached")
		}
		if op.StoreAs != "" {
			fmt.Fprintf(&b, " store=%s", op.StoreAs)
		}
	case HashJoin:
		fmt.Fprintf(&b, " %s ⋈ %s → %s", op.Left, op.Right, op.Out)
	case Semijoin:
		if op.Attr != "" {
			fmt.Fprintf(&b, " bindings ⋉ rel#%d on %v+%s", op.RelIdx, op.Prefix, op.Attr)
		} else {
			fmt.Fprintf(&b, " %s ⋉ %s → %s", op.Left, op.Right, op.Out)
		}
	case Project:
		fmt.Fprintf(&b, " %s → %s", op.Left, op.Out)
	case Emit:
		if op.From != "" {
			fmt.Fprintf(&b, " from %s → %s", op.From, op.Out)
		} else {
			fmt.Fprintf(&b, " → %s", op.Out)
		}
	case Scatter:
		fmt.Fprintf(&b, " val(%s) → %s", op.Attr, op.Out)
	case Extend:
		fmt.Fprintf(&b, " bindings%v + %s via rel#%d", op.Prefix, op.Attr, op.RelIdx)
	}
	var tags []string
	if s := op.strategy(); s != "" {
		tags = append(tags, s)
	}
	if c := op.Cost.String(); c != "" {
		tags = append(tags, c)
	}
	if op.Phase != "" {
		tags = append(tags, "phase="+op.Phase)
	}
	if op.Note != "" {
		tags = append(tags, op.Note)
	}
	if len(tags) > 0 {
		fmt.Fprintf(&b, "  [%s]", strings.Join(tags, ", "))
	}
	return b.String()
}

// strategy names the execution strategy the op belongs to: "wcoj" for the
// worst-case-optimal join ops (a Semijoin with Attr is a BigJoin verify
// round), "binary" for hash joins and reductions, "" for the rest.
func (op *Op) strategy() string {
	switch op.Kind {
	case LeapfrogCube, Extend:
		return "wcoj"
	case HashJoin:
		return "binary"
	case Semijoin:
		if op.Attr != "" {
			return "wcoj"
		}
		return "binary"
	}
	return ""
}

// Program is a lowered query: operators in topological (execution) order.
type Program struct {
	// Engine is the engine name the program was lowered for.
	Engine string
	// Label is the static plan description (Report.Plan); ops flagged
	// LabelShares may amend it at run time.
	Label string
	Ops   []*Op
}

// Add assigns the next ID and appends op. Ops must be added in a valid
// topological order: an op may only reference already-added inputs (Add
// panics otherwise — planners are deterministic, so this is a plan bug,
// not an input error).
func (p *Program) Add(op *Op) *Op {
	op.ID = len(p.Ops)
	for _, in := range op.Inputs {
		if in < 0 || in >= op.ID {
			panic(fmt.Sprintf("plan: op #%d (%s) references input #%d out of order", op.ID, op.Kind, in))
		}
	}
	p.Ops = append(p.Ops, op)
	return op
}

// Roots returns the ops no other op consumes — the plan's outputs (usually
// a single Emit).
func (p *Program) Roots() []*Op {
	consumed := make(map[int]bool)
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			consumed[in] = true
		}
	}
	var roots []*Op
	for _, op := range p.Ops {
		if !consumed[op.ID] {
			roots = append(roots, op)
		}
	}
	return roots
}

// Validate checks DAG well-formedness: IDs match positions, inputs precede
// consumers, and exactly the final op (or at least one op) is a root.
func (p *Program) Validate() error {
	if len(p.Ops) == 0 {
		return fmt.Errorf("plan: empty program")
	}
	for i, op := range p.Ops {
		if op.ID != i {
			return fmt.Errorf("plan: op at position %d has ID %d", i, op.ID)
		}
		for _, in := range op.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("plan: op #%d references input #%d out of order", i, in)
			}
		}
	}
	if len(p.Roots()) == 0 {
		return fmt.Errorf("plan: no root op")
	}
	return nil
}

// Tree renders the operator DAG as an indented tree rooted at the plan's
// outputs, children being input ops. Ops feeding several consumers render
// in full once; later references print as "#id ↑". This is what
// Explain (and cmd/adj -explain) shows.
func (p *Program) Tree() string {
	var b strings.Builder
	if p.Label != "" {
		fmt.Fprintf(&b, "%s: %s\n", p.Engine, p.Label)
	} else if p.Engine != "" {
		fmt.Fprintf(&b, "%s:\n", p.Engine)
	}
	seen := make(map[int]bool)
	roots := p.Roots()
	// Roots render in reverse add-order so the final Emit leads.
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID > roots[j].ID })
	for _, r := range roots {
		p.render(&b, r, "", "", seen)
	}
	return b.String()
}

func (p *Program) render(b *strings.Builder, op *Op, prefix, childPrefix string, seen map[int]bool) {
	if seen[op.ID] {
		fmt.Fprintf(b, "%s#%d ↑\n", prefix, op.ID)
		return
	}
	seen[op.ID] = true
	fmt.Fprintf(b, "%s%s\n", prefix, op.label())
	// Children render newest-first: the main pipeline input (added last)
	// reads top-down.
	ins := append([]int(nil), op.Inputs...)
	sort.Sort(sort.Reverse(sort.IntSlice(ins)))
	for i, in := range ins {
		last := i == len(ins)-1
		connector, cont := "├─ ", "│  "
		if last {
			connector, cont = "└─ ", "   "
		}
		p.render(b, p.Ops[in], childPrefix+connector, childPrefix+cont, seen)
	}
}
