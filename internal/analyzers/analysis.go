// Package analyzers is ADJ's project-specific static analysis suite: a
// small, dependency-free analysis framework (stdlib go/ast + go/types
// only — the build environment carries no golang.org/x/tools) plus the
// five analyzers that turn the codebase's hand-maintained invariants into
// compile-time checks:
//
//   - ctxflow: context.Context must flow end-to-end; no
//     context.Background()/context.TODO() outside package main and tests.
//   - errwrap: errors crossing package boundaries keep the typed taxonomy —
//     fmt.Errorf with an error argument must use %w, sentinel errors are
//     compared with errors.Is, never ==.
//   - lockdiscipline: no blocking operation (channel send/receive, select,
//     StreamExchange/Parallel/Admit, time.Sleep) while a sync
//     mutex is held, and no early return that can leave one locked.
//   - pooldiscipline: every sync.Pool.Get has a matching Put on all paths,
//     and pointer-to-slice scratch is length-reset before Put.
//   - phasevocab: phase-name string literals charged to run metrics come
//     from the fixed phase vocabulary, so report accounting cannot
//     silently fragment.
//
// The cmd/adjlint multichecker drives the suite over ./... and is a hard
// CI gate. False positives are suppressed in place with
//
//	//adjlint:ignore <analyzer>[,<analyzer>] reason...
//
// on the flagged line or the line directly above it (see README.md).
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked package
// through its Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name is the short identifier used in output and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{CtxFlow, ErrWrap, LockDiscipline, PoolDiscipline, PhaseVocab}
}

// ByName resolves a comma-separated analyzer list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies each analyzer to each package, filters findings through the
// packages' //adjlint:ignore directives, and returns them sorted by
// position. Seconds maps analyzer name → cumulative runtime, so the CI log
// keeps the gate's cost visible.
func Run(pkgs []*Package, as []*Analyzer) (diags []Diagnostic, seconds map[string]float64, err error) {
	seconds = make(map[string]float64, len(as))
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg.Fset, pkg.Files)
		for _, a := range as {
			var raw []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &raw,
			}
			t0 := now()
			if rerr := a.Run(pass); rerr != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, rerr)
			}
			seconds[a.Name] += now() - t0
			for _, d := range raw {
				if !ignores.matches(a.Name, d.Pos) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, seconds, nil
}

// ignoreDirective is one parsed //adjlint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers map[string]bool // nil = all analyzers
}

type ignoreSet []ignoreDirective

// matches reports whether a finding by analyzer at pos is suppressed: the
// directive sits on the same line (trailing comment) or the line directly
// above (its own comment line).
func (s ignoreSet) matches(analyzer string, pos token.Position) bool {
	for _, ig := range s {
		if ig.file != pos.Filename {
			continue
		}
		if ig.line != pos.Line && ig.line != pos.Line-1 {
			continue
		}
		if ig.analyzers == nil || ig.analyzers[analyzer] {
			return true
		}
	}
	return false
}

const ignorePrefix = "//adjlint:ignore"

// collectIgnores parses every //adjlint:ignore directive in the package.
// Grammar: "//adjlint:ignore <name>[,<name>...] reason..."; the name list
// "all" suppresses every analyzer.
func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	var out ignoreSet
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				ig := ignoreDirective{file: pos.Filename, line: pos.Line}
				if fields[0] != "all" {
					ig.analyzers = make(map[string]bool)
					for _, n := range strings.Split(fields[0], ",") {
						ig.analyzers[n] = true
					}
				}
				out = append(out, ig)
			}
		}
	}
	return out
}
