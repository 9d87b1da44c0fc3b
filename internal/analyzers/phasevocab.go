package analyzers

import (
	"go/ast"
	"go/constant"
	"regexp"
	"strings"
)

// PhaseVocab enforces the phase-name vocabulary that ties the plan IR,
// the cluster's run record, and the report fold together. Phase names are
// join keys: lower.go stamps them on plan ops, Parallel / StreamExchange /
// Metrics.Charge record entries under them, and the engine's report fold
// buckets entries by their prefix. A typo'd phase name is not an error
// anywhere — its entry silently lands in the wrong bucket and the report's
// numbers stop adding up.
//
// The vocabulary is root[digits][/subphase]: roots are the pipeline's
// stages (precompute, shuffle, join, round, optimize, emit, tries,
// coordinator), an optional round index (round0, round1), and an optional
// slash-separated subphase (precompute/canon, join/probe).
//
// Checked sites (string literals only; computed names are the caller's
// responsibility):
//   - Phase: fields in composite literals of a type named Op (the plan IR)
//   - .Charge(...) calls on a type named Metrics
//   - the phase argument of .Parallel / .StreamExchange calls
//     on a type named Cluster
var PhaseVocab = &Analyzer{
	Name: "phasevocab",
	Doc:  "phase-name literals on plan ops and run-record entries must come from the fixed vocabulary",
	Run:  runPhaseVocab,
}

var phaseNameRE = regexp.MustCompile(`^(precompute|shuffle|join|round|optimize|emit|tries|coordinator)[0-9]*(/[A-Za-z0-9_/-]+)?$`)

func runPhaseVocab(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				checkOpPhaseField(pass, x)
			case *ast.CallExpr:
				checkPhaseCallArg(pass, x)
			}
			return true
		})
	}
	return nil
}

// litString extracts the constant string value of e, if it is one.
func litString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	// Only flag syntactic literals; named constants define vocabulary
	// deliberately and concatenations are checked at their literal parts.
	if _, isLit := ast.Unparen(e).(*ast.BasicLit); !isLit {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func reportBadPhase(pass *Pass, e ast.Expr, name, site string) {
	pass.Reportf(e.Pos(), "phase name %q (%s) is outside the vocabulary %s[digits][/subphase]: a typo here files the step under the wrong report bucket instead of failing",
		name, site, strings.Join(phaseRoots(), "|"))
}

func phaseRoots() []string {
	return []string{"precompute", "shuffle", "join", "round", "optimize", "emit", "tries", "coordinator"}
}

// checkOpPhaseField validates Phase: "..." fields in plan-IR Op literals.
func checkOpPhaseField(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !typeNameIs(tv.Type, "Op") {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Phase" {
			continue
		}
		if s, ok := litString(pass, kv.Value); ok && !phaseNameRE.MatchString(s) {
			reportBadPhase(pass, kv.Value, s, "plan op Phase field")
		}
	}
}

// checkPhaseCallArg validates the phase-name argument of Metrics.Charge and
// the Cluster phase-running methods.
func checkPhaseCallArg(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return
	}
	var site string
	switch {
	case sel.Sel.Name == "Charge" && typeNameIs(tv.Type, "Metrics"):
		site = "Metrics.Charge"
	case typeNameIs(tv.Type, "Cluster") &&
		(sel.Sel.Name == "Parallel" || sel.Sel.Name == "StreamExchange"):
		site = "Cluster." + sel.Sel.Name + " phase"
	default:
		return
	}
	if s, ok := litString(pass, call.Args[0]); ok && !phaseNameRE.MatchString(s) {
		reportBadPhase(pass, call.Args[0], s, site)
	}
}
