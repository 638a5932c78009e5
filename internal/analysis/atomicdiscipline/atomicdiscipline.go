// Package atomicdiscipline enforces the all-or-nothing rule of sync/atomic:
// once any code accesses a variable through the atomic functions, every
// access to that variable — in any package of the program — must be
// atomic. A single plain load racing an atomic store is a data race the
// race detector only catches if a test happens to drive both sides; this
// analyzer catches the mix statically.
//
// A struct field or package-level variable becomes "atomic" when its
// address is passed to a sync/atomic function (atomic.LoadUint64(&s.seq),
// atomic.AddInt64(&ops, 1), …). The discovery is exported as an object
// fact, so a package that takes the address atomically taints the field
// for every downstream package. Any other appearance of the variable —
// plain read, plain write, address-take for non-atomic purposes — is
// reported, except inside composite literals (construction happens before
// the value is shared, and the atomic package itself documents that
// initialization may be plain).
//
// The typed atomics (atomic.Uint64, atomic.Bool, …) make this discipline
// structural and are what the runtime packages actually use; this analyzer
// exists to keep the address-passing style from quietly regressing into a
// mixed regime. Facts flow forward only: a plain access compiled before
// the first atomic access of the same field (an upstream package, with the
// atomic use downstream) is out of scope — in this codebase fields are
// accessed atomically where they are declared, so the declaring package
// always exports the fact first.
package atomicdiscipline

import (
	"fmt"
	"go/ast"
	"go/types"

	"fdp/internal/analysis"
)

// Analyzer is the atomicdiscipline pass.
var Analyzer = &analysis.Analyzer{
	Name:      "atomicdiscipline",
	Doc:       "a variable accessed through sync/atomic must be accessed atomically everywhere; mixed plain/atomic access is a data race",
	Run:       run,
	FactTypes: []analysis.Fact{(*AtomicFact)(nil)},
}

// AtomicFact marks a field or package-level variable as atomically
// accessed; Pos is the "file:line" of the first atomic access seen.
type AtomicFact struct {
	Pos string
}

// AFact marks AtomicFact as a fact.
func (*AtomicFact) AFact() {}

func run(pass *analysis.Pass) (any, error) {
	// Pass 1: find &x arguments of sync/atomic calls. sanctioned holds the
	// ast.Expr occurrences that ARE the atomic access (and so must not be
	// flagged by pass 2); atomicObjs the tainted objects with first-seen
	// position.
	sanctioned := make(map[ast.Expr]bool)
	atomicObjs := make(map[types.Object]string)
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				obj := addressedObject(pass, un.X)
				if obj == nil {
					continue
				}
				sanctioned[un.X] = true
				// For a qualified var (&pkg.V) pass 2 visits the Sel ident
				// on its own; sanction it too.
				if sel, isSel := un.X.(*ast.SelectorExpr); isSel {
					sanctioned[sel.Sel] = true
				}
				if _, seen := atomicObjs[obj]; !seen {
					p := pass.Fset.Position(un.Pos())
					atomicObjs[obj] = fmt.Sprintf("%s:%d", p.Filename, p.Line)
				}
			}
			return true
		})
	}
	for obj, pos := range atomicObjs {
		pass.ExportObjectFact(obj, &AtomicFact{Pos: pos})
	}

	// isAtomic consults local discoveries first, then imported facts (the
	// field may be declared — and atomically used — upstream).
	posOf := func(obj types.Object) (string, bool) {
		if pos, ok := atomicObjs[obj]; ok {
			return pos, true
		}
		var f AtomicFact
		if pass.ImportObjectFact(obj, &f) {
			return f.Pos, true
		}
		return "", false
	}

	// Pass 2: any other appearance of a tainted object is a mixed access.
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		inComposite := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if cl, ok := n.(*ast.CompositeLit); ok {
				for _, elt := range cl.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						inComposite[kv.Key] = true
					}
				}
			}
			var obj types.Object
			var expr ast.Expr
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if s := pass.TypesInfo.Selections[e]; s != nil {
					if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
						obj, expr = v, e
					}
				}
			case *ast.Ident:
				if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && !v.IsField() && v.Parent() == v.Pkg().Scope() {
					obj, expr = v, e
				}
			}
			if obj == nil || sanctioned[expr] || inComposite[expr] {
				return true
			}
			if pos, ok := posOf(obj); ok {
				pass.Reportf(expr.Pos(), "plain access to %s, which is accessed atomically (sync/atomic at %s); every access to an atomically-used variable must go through sync/atomic", types.ExprString(expr), shortPos(pos))
				return false
			}
			return true
		})
	}
	return nil, nil
}

// isAtomicCall reports whether call invokes a package-level function of
// sync/atomic (the address-taking API; typed-atomic methods never take an
// outside address).
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if analysis.PkgPath(fn.Pkg()) != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// addressedObject resolves &expr's operand to a struct field or
// package-level variable (the objects facts can name); locals return nil —
// a local can't be shared across packages and escape analysis is out of
// scope here.
func addressedObject(pass *analysis.Pass, expr ast.Expr) types.Object {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if s := pass.TypesInfo.Selections[e]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		}
		// Qualified package-level var: pkg.V.
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v
		}
	case *ast.IndexExpr:
		return addressedObject(pass, e.X)
	}
	return nil
}

// shortPos trims a position's filename to its last two path segments.
func shortPos(pos string) string {
	slash := 0
	for i := len(pos) - 1; i >= 0; i-- {
		if pos[i] == '/' {
			slash++
			if slash == 2 {
				return pos[i+1:]
			}
		}
	}
	return pos
}
