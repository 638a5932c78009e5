// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// typechecked package through a Pass and reports position-tagged
// Diagnostics, and may export Facts about package-level objects that
// downstream packages import (see facts.go). The module cannot vendor
// x/tools (the build environment is offline), so the subset the fdplint
// analyzers need — no Requires graph, no SSA — is implemented here
// directly on go/ast and go/types. The API mirrors x/tools deliberately:
// if the dependency ever becomes available, each analyzer ports by
// changing one import line.
//
// The driver and the fixture harness live alongside:
//
//   - internal/analysis/program typechecks the whole module in dependency
//     order (via `go list -deps -export -json`) and runs every analyzer
//     over every package with one shared fact store — what `make lint`
//     and `fdplint ./...` run.
//   - internal/analysis/analysistest loads golden-fixture packages from an
//     analyzer's testdata/src tree and checks reported diagnostics against
//     `// want "regexp"` comments, threading facts across the listed
//     fixture packages in order.
//
// Suppression: a comment of the form
//
//	//fdplint:ignore <analyzer> <reason>
//
// suppresses that analyzer's diagnostics on the comment's line, on the
// line below it (so the directive can trail the offending line or sit on
// its own line above it), and across the full line span of any statement
// or declaration starting on either of those lines (so a directive covers
// a wrapped call or range whose diagnostic anchors on a later line). The
// reason is mandatory; a bare or malformed directive is itself reported.
// Filtering happens in RunPackage, so the driver, the fixture harness and
// every analyzer get the facility for free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //fdplint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects the package presented by pass and reports findings via
	// pass.Report/Reportf. The result value is unused (kept for x/tools API
	// parity).
	Run func(pass *Pass) (any, error)
	// FactTypes lists prototype values of every Fact type the analyzer
	// exports (see facts.go); exporting an unregistered type panics.
	FactTypes []Fact
}

// Pass presents one typechecked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Facts is the program-wide fact store, shared across packages and
	// analyzers by whole-program drivers. Nil under a bare RunPackage; the
	// fact methods allocate lazily so single-package analyzers still work.
	Facts *FactStore
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding. Analyzer is filled in by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// IgnoreDirective is the comment prefix of the suppression facility.
const IgnoreDirective = "//fdplint:ignore"

// directive is one well-formed //fdplint:ignore comment. hits counts the
// diagnostics it suppressed, so a directive that suppresses nothing can
// itself be reported (a stale ignore silently disables future findings on
// its line).
type directive struct {
	name   string // analyzer the directive names
	pos    token.Pos
	inTest bool
	hits   int
}

// ignoreSet records, per analyzer name, the file lines on which
// diagnostics are suppressed and by which directives.
type ignoreSet map[string]map[string]map[int][]*directive // analyzer -> filename -> line

func (s ignoreSet) add(d *directive, file string, line int) {
	byFile := s[d.name]
	if byFile == nil {
		byFile = make(map[string]map[int][]*directive)
		s[d.name] = byFile
	}
	if byFile[file] == nil {
		byFile[file] = make(map[int][]*directive)
	}
	for _, have := range byFile[file][line] {
		if have == d {
			return
		}
	}
	byFile[file][line] = append(byFile[file][line], d)
}

// suppressed reports whether a diagnostic of the named analyzer at
// file:line is covered, and credits the covering directives.
func (s ignoreSet) suppressed(name, file string, line int) bool {
	ds := s[name][file][line]
	for _, d := range ds {
		d.hits++
	}
	return len(ds) > 0
}

// collectIgnores scans every comment of every file for //fdplint:ignore
// directives. Malformed directives (run-on prefix, no analyzer name, or no
// reason) are reported as diagnostics of the pseudo-analyzer "fdplint" so
// that a typo never silently disables a check.
func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []*directive, []Diagnostic) {
	ignores := make(ignoreSet)
	var all []*directive
	var bad []Diagnostic
	for _, f := range files {
		inTest := IsTestFile(fset, f)
		// targets maps each directive-covered line to the directives
		// active there, for the statement-span extension below.
		targets := make(map[int][]*directive)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnoreDirective)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// A run-on variant like //fdplint:ignoreX must not pass
					// as a directive with analyzer name "X...".
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed fdplint directive: want //fdplint:ignore <analyzer> <reason>",
						Analyzer: "fdplint",
					})
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Message:  "fdplint:ignore needs an analyzer name and a reason: //fdplint:ignore <analyzer> <reason>",
						Analyzer: "fdplint",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				d := &directive{name: fields[0], pos: c.Pos(), inTest: inTest}
				all = append(all, d)
				// Suppress the directive's own line and the next one, so the
				// directive works both trailing the offending statement and on
				// a line of its own above it.
				ignores.add(d, pos.Filename, pos.Line)
				ignores.add(d, pos.Filename, pos.Line+1)
				targets[pos.Line] = append(targets[pos.Line], d)
				targets[pos.Line+1] = append(targets[pos.Line+1], d)
			}
		}
		if len(targets) == 0 {
			continue
		}
		// A directive attaches to the statement or declaration starting on a
		// covered line; diagnostics for a multi-line statement (a wrapped
		// call, a range over a long composite) may anchor on any of its
		// lines, so suppress its whole line span.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, ast.Decl:
			default:
				return true
			}
			start := fset.Position(n.Pos())
			ds := targets[start.Line]
			if len(ds) == 0 {
				return true
			}
			end := fset.Position(n.End())
			for _, d := range ds {
				for line := start.Line; line <= end.Line; line++ {
					ignores.add(d, start.Filename, line)
				}
			}
			return true
		})
	}
	return ignores, all, bad
}

// RunPackage runs the analyzers over one typechecked package, applies the
// //fdplint:ignore suppressions, and returns the surviving diagnostics in
// file/position order. Facts stay package-local; whole-program drivers use
// RunPackageFacts with a shared store instead.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunPackageFacts(fset, files, pkg, info, analyzers, nil)
}

// RunPackageFacts is RunPackage with an explicit fact store: facts exported
// by earlier packages of the same run are importable, and facts exported
// here become visible to packages analyzed later. It also reports unused
// //fdplint:ignore directives — a directive naming an analyzer in this run
// that suppressed no diagnostic is itself a finding (pseudo-analyzer
// "fdplint"), so stale ignores can't silently accumulate.
func RunPackageFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	ignores, directives, diags := collectIgnores(fset, files)
	if facts == nil {
		facts = NewFactStore()
	}
	inRun := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		inRun[a.Name] = true
		var collected []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     facts,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				collected = append(collected, d)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range collected {
			pos := fset.Position(d.Pos)
			if ignores.suppressed(a.Name, pos.Filename, pos.Line) {
				continue
			}
			diags = append(diags, d)
		}
	}
	// Unused-directive findings: only for analyzers that actually ran (a
	// single-analyzer fixture run must not flag another analyzer's
	// directives), and not in test files (most analyzers skip those, so
	// their directives could never score a hit).
	for _, d := range directives {
		if d.hits == 0 && !d.inTest && inRun[d.name] {
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Message:  fmt.Sprintf("unused fdplint:ignore directive: no %s diagnostic is suppressed here", d.name),
				Analyzer: "fdplint",
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// IsTestFile reports whether the file's name ends in _test.go. The fdplint
// disciplines bind protocol and simulator code; tests do scenario
// construction and bookkeeping that legitimately use simulator-only
// helpers, wall-clock deadlines and seeded randomness.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// PkgPath normalizes a package path as reported by the build system:
// "fdp/internal/sim [fdp/internal/sim.test]" (a test variant) has the
// bracket part stripped so scope checks match the plain import path.
func PkgPath(pkg *types.Package) string {
	path := pkg.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}
