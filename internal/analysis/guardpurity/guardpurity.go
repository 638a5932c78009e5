// Package guardpurity enforces that guard functions are side-effect-free.
// In the paper's model a guard is a predicate over the process's local
// state that decides whether an action is enabled; evaluating it must not
// change the system (Section 1.1). The reproduction's guards are the
// oracles (sim.Oracle.Evaluate — the exit guard of Section 1.3) and the
// func(*sim.World) bool predicate literals passed to the run-driver entry
// points (Runtime.RunUntil / Runtime.WaitUntil); both are evaluated
// speculatively, repeatedly, and — in the parallel runtime — on frozen
// snapshots, so a guard that sends a message or mutates world state
// corrupts the run in schedule-dependent ways no seed can reproduce. A
// predicate literal handed to anything else (say a one-shot assertion
// helper) is not a guard and is the caller's business.
//
// For every guard body (including nested function literals) the pass
// flags:
//
//   - calls to the known mutating methods of the model surface:
//     sim.Context.{Send,Exit,Sleep}, (*sim.World) mutators (Execute,
//     Enqueue, AddProcess, ForceAsleep, SealInitialState,
//     SetInitialComponents), the parallel runtime's
//     mutators (Start, Stop, Mutate, Enqueue, AddProcess, ForceAsleep)
//     and MutableView.{Enqueue,Reseal};
//   - assignments (and ++/--) through a guard parameter: `w.x = y` on the
//     *sim.World parameter mutates the very state the guard is supposed
//     to only observe. Rebinding the parameter itself (`w = nil`) is
//     harmless and not flagged.
//
// Mutation of the oracle's own receiver is permitted: stateful oracles
// (e.g. the unsound timeout ablation) are simulator-internal and their
// statefulness is part of what the experiments measure.
package guardpurity

import (
	"go/ast"
	"go/types"

	"fdp/internal/analysis"
)

// mutators is the denylist of methods a guard must not call, keyed by
// types.Func.FullName.
var mutators = map[string]bool{
	"(fdp/internal/sim.Context).Send":                true,
	"(fdp/internal/sim.Context).Exit":                true,
	"(fdp/internal/sim.Context).Sleep":               true,
	"(*fdp/internal/sim.World).Execute":              true,
	"(*fdp/internal/sim.World).Enqueue":              true,
	"(*fdp/internal/sim.World).AddProcess":           true,
	"(*fdp/internal/sim.World).ForceAsleep":          true,
	"(*fdp/internal/sim.World).SealInitialState":     true,
	"(*fdp/internal/sim.World).SetInitialComponents": true,
	"(*fdp/internal/parallel.Runtime).Start":         true,
	"(*fdp/internal/parallel.Runtime).Stop":          true,
	"(*fdp/internal/parallel.Runtime).Mutate":        true,
	"(*fdp/internal/parallel.Runtime).Enqueue":       true,
	"(*fdp/internal/parallel.Runtime).AddProcess":    true,
	"(*fdp/internal/parallel.Runtime).ForceAsleep":   true,
	"(*fdp/internal/parallel.MutableView).Enqueue":   true,
	"(*fdp/internal/parallel.MutableView).Reseal":    true,
}

// drivers is the allowlist of run-driver entry points whose predicate
// arguments are guards, keyed by types.Func.FullName.
var drivers = map[string]bool{
	"(*fdp/internal/parallel.Runtime).RunUntil":  true,
	"(*fdp/internal/parallel.Runtime).WaitUntil": true,
}

// Analyzer is the guardpurity pass.
var Analyzer = &analysis.Analyzer{
	Name: "guardpurity",
	Doc:  "guard functions (oracle Evaluate methods, run-driver world predicates) must not send messages or mutate world state",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && isOracleEvaluate(pass, n) {
					checkGuardBody(pass, n.Body, paramObjs(pass, n.Type))
				}
			case *ast.CallExpr:
				if !isDriverCall(pass, n) {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok && isWorldPredicate(pass, lit) {
						checkGuardBody(pass, lit.Body, paramObjs(pass, lit.Type))
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// isOracleEvaluate reports whether decl is a method implementing
// sim.Oracle's Evaluate(w *sim.World, u ref.Ref) bool.
func isOracleEvaluate(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl.Name.Name != "Evaluate" || decl.Recv == nil {
		return false
	}
	obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	return isNamed(sig.Params().At(0).Type(), "fdp/internal/sim", "World", true) &&
		isNamed(sig.Params().At(1).Type(), "fdp/internal/ref", "Ref", false) &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}

// isDriverCall reports whether call invokes one of the known run-driver
// entry points.
func isDriverCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	return ok && drivers[fn.FullName()]
}

// isWorldPredicate reports whether lit has the drivers' world-predicate
// shape, func(*sim.World) bool.
func isWorldPredicate(pass *analysis.Pass, lit *ast.FuncLit) bool {
	sig, ok := pass.TypesInfo.Types[lit].Type.(*types.Signature)
	if !ok {
		return false
	}
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	return isNamed(sig.Params().At(0).Type(), "fdp/internal/sim", "World", true) &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}

func isNamed(t types.Type, pkgPath, name string, wantPtr bool) bool {
	if wantPtr {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// paramObjs collects the parameter objects of the guard, for the
// parameter-mutation check.
func paramObjs(pass *analysis.Pass, ft *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

func checkGuardBody(pass *analysis.Pass, body *ast.BlockStmt, params map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pass.TypesInfo.Selections[sel]
			if selection == nil {
				return true
			}
			fn, ok := selection.Obj().(*types.Func)
			if !ok {
				return true
			}
			if mutators[fn.FullName()] {
				pass.Reportf(n.Pos(), "guard calls %s; guards must be side-effect-free (paper §1.1: guards only observe state)", fn.FullName())
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if root := mutatedParamRoot(pass, lhs, params); root != "" {
					pass.Reportf(lhs.Pos(), "guard mutates state reachable from its parameter %s; guards must be side-effect-free", root)
				}
			}
		case *ast.IncDecStmt:
			if root := mutatedParamRoot(pass, n.X, params); root != "" {
				pass.Reportf(n.X.Pos(), "guard mutates state reachable from its parameter %s; guards must be side-effect-free", root)
			}
		}
		return true
	})
}

// mutatedParamRoot returns the parameter name when expr is a selector or
// index chain rooted at a guard parameter (w.stats.Steps, w.procs[i], …).
// A bare parameter identifier (plain rebinding) returns "".
func mutatedParamRoot(pass *analysis.Pass, expr ast.Expr, params map[types.Object]bool) string {
	depth := 0
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			expr = e.X
			depth++
		case *ast.IndexExpr:
			expr = e.X
			depth++
		case *ast.StarExpr:
			expr = e.X
			depth++
		case *ast.Ident:
			if depth > 0 && params[pass.TypesInfo.Uses[e]] {
				return e.Name
			}
			return ""
		default:
			return ""
		}
	}
}
