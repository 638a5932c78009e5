// Package refopacity enforces the paper's copy-store-send discipline
// (Section 1.1) on protocol code: the only operations a protocol may
// perform on a process reference are copying it, storing it, sending it,
// and testing two references for equality. Ordering, integer identities
// and reference minting exist in package fdp/internal/ref strictly for the
// simulator's bookkeeping; this analyzer keeps them from escaping into the
// protocol layer, where using them would make the reproduction prove a
// theorem about a stronger model than the paper's.
//
// Scope: the protocol packages — the root package fdp (fdp.go/morph.go
// protocol plumbing), fdp/internal/framework, fdp/internal/primitives and
// fdp/internal/overlay — excluding _test.go files (tests build scenarios,
// which requires minting references).
//
// Flagged:
//   - any use of ref.Index, ref.ByIndex or ref.Less (integer identity /
//     ordering on references);
//   - any use of ref.Space or ref.NewSpace (protocols cannot mint
//     references, only receive them);
//   - explicit calls to Ref.String (a rendered reference invites parsing,
//     which would recover the forbidden integer identity).
//
// Deliberately allowed: ref.Sort, ref.Search (finding a member of a slice
// kept in ref.Sort order) and ref.Set.Sorted — deterministic iteration order
// is a simulation artifact required for per-seed reproducibility
// (sim.Protocol's documented contract), not a protocol decision; and
// scenario-construction sites inside protocol packages may suppress with
// //fdplint:ignore refopacity <reason>.
package refopacity

import (
	"go/ast"

	"fdp/internal/analysis"
)

// RefPkgPath is the package whose simulator-only surface is protected.
const RefPkgPath = "fdp/internal/ref"

// protocolPkgs are the packages bound by the copy-store-send discipline.
var protocolPkgs = map[string]bool{
	"fdp":                     true,
	"fdp/internal/framework":  true,
	"fdp/internal/primitives": true,
	"fdp/internal/overlay":    true,
}

// denied maps simulator-only identifiers of package ref to the reason they
// are off-limits for protocols.
var denied = map[string]string{
	"Index":    "exposes the reference's integer identity",
	"ByIndex":  "mints a reference from an integer identity",
	"Less":     "imposes an order on references",
	"NewSpace": "mints fresh references",
	"Space":    "is the reference-minting authority",
	"Wire":     "serializes the reference's integer identity for the wire",
	"FromWire": "mints a reference from a wire identity",
}

// Analyzer is the refopacity pass.
var Analyzer = &analysis.Analyzer{
	Name: "refopacity",
	Doc:  "protocol packages may only copy, store, send and ==-compare refs (paper §1.1 copy-store-send model)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !protocolPkgs[analysis.PkgPath(pass.Pkg)] {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := pass.TypesInfo.Uses[n]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != RefPkgPath {
					return true
				}
				if why, bad := denied[obj.Name()]; bad {
					pass.Reportf(n.Pos(), "ref.%s %s; protocol code may only copy, store, send or ==-compare references", obj.Name(), why)
				}
			case *ast.SelectorExpr:
				// Explicit Ref.String() renderings (method value or call).
				sel := pass.TypesInfo.Selections[n]
				if sel == nil {
					return true
				}
				if fn, ok := sel.Obj().(interface{ FullName() string }); ok {
					if fn.FullName() == "(fdp/internal/ref.Ref).String" {
						pass.Reportf(n.Pos(), "protocol code must not render Ref.String(): a rendered reference invites parsing, recovering the forbidden identity")
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
