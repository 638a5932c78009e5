// Package detiter enforces per-seed determinism in the deterministic
// packages (fdp/internal/sim, core, churn, faults, trace, node, parallel): identical
// seeds must yield identical runs, which is what makes replay debugging, the
// differential harness and every experiment table reproducible. The two
// bug classes PR 2 had to flush out dynamically — map-iteration-order
// leaking into scheduling decisions, and draws from process-global
// randomness — are exactly what this pass rejects from the program text.
//
// Flagged in non-test files of the deterministic packages:
//
//   - `range` over a map, unless the loop is one of the two provably
//     order-insensitive shapes:
//     (a) a single-statement map/set copy `dst[k] = v` (the destination's
//     final content does not depend on iteration order), or
//     (b) a single-statement collect `s = append(s, k)` whose slice is
//     subsequently passed to a sort (ref.Sort, sort.*, slices.Sort*)
//     later in the same function — the sanctioned collect-then-sort
//     idiom behind ref.Set.Sorted and Proc.NeighborRefs;
//   - calls to math/rand (and math/rand/v2) package-level functions, which
//     draw from the process-global generator (constructors rand.New,
//     rand.NewSource etc. are allowed — seeded *rand.Rand instances are
//     the deterministic way to randomize);
//   - any use of time.Now, time.Since, time.Until or time.Sleep: wall-clock
//     reads and waits make control flow machine- and load-dependent.
//
// Genuinely order-insensitive loops that fit neither exemption can state
// that with //fdplint:ignore detiter <reason>.
package detiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"fdp/internal/analysis"
)

// deterministicPkgs must produce identical behaviour for identical seeds.
var deterministicPkgs = map[string]bool{
	"fdp/internal/sim":    true,
	"fdp/internal/core":   true,
	"fdp/internal/churn":  true,
	"fdp/internal/faults": true,
	// The journal/replay subsystem: a journal written twice from the same
	// schedule must be byte-identical, so the writer and every analysis
	// over records (spans, diffs, exports) must be order-deterministic.
	"fdp/internal/trace": true,
	// The mesh node: Step runs on the time it is given, so a mesh stepped
	// on a seeded loopback's virtual clock replays byte for byte. Only the
	// wall-clock loop Run reads the clock, under an ignore directive.
	"fdp/internal/node": true,
	// The sharded runtime: a shard iteration and an epoch run on the time
	// they are given, so RunSeeded's virtual clock replays a run byte for
	// byte. Only the wall-clock drivers (worker, coordinate, Start's clock,
	// WaitUntil) read the clock, under ignore directives.
	"fdp/internal/parallel": true,
}

// globalRandAllowed lists math/rand identifiers that do NOT draw from the
// process-global source.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
	"Source": true, "Source64": true, "Rand": true, "Zipf": true, // types
	"PCG": true, "ChaCha8": true,
}

// clockDenied are the wall-clock reads.
var clockDenied = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true}

// Analyzer is the detiter pass.
var Analyzer = &analysis.Analyzer{
	Name: "detiter",
	Doc:  "deterministic packages must not iterate maps unsorted, draw global randomness, or read the wall clock",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !deterministicPkgs[analysis.PkgPath(pass.Pkg)] {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		checkFile(pass, f)
	}
	return nil, nil
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	// Walk function by function so the collect-then-sort exemption can see
	// the whole enclosing body.
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		default:
			return true
		}
		if body != nil {
			checkBody(pass, body)
		}
		return true
	})

	// Global randomness and wall-clock reads are position-independent.
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		// Methods (rng.Intn on a seeded *rand.Rand) also belong to package
		// math/rand; only package-level functions draw from the global
		// generator.
		if fn, isFn := obj.(*types.Func); isFn {
			if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
				return true
			}
		}
		switch obj.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			if !globalRandAllowed[obj.Name()] {
				pass.Reportf(id.Pos(), "rand.%s draws from the process-global generator; use a seeded *rand.Rand so runs are reproducible per seed", obj.Name())
			}
		case "time":
			if clockDenied[obj.Name()] {
				pass.Reportf(id.Pos(), "time.%s reads the wall clock in a deterministic package; thread logical steps (World.Steps) instead", obj.Name())
			}
		}
		return true
	})
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // nested functions get their own walk
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if isMapCopy(pass, rs) || isCollectThenSort(pass, body, rs) {
			return true
		}
		pass.Reportf(rs.Pos(), "range over map is iteration-order nondeterministic; iterate a sorted slice (ref.Set.Sorted, collect-then-sort) or annotate //fdplint:ignore detiter <reason>")
		return true
	})
}

// isMapCopy reports whether the range body is a single `dst[k] = v` (or
// `dst[k] += v` style) map assignment — an order-insensitive copy/merge.
func isMapCopy(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 {
		return false
	}
	ix, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isCollectThenSort reports whether the range body is a single
// `s = append(s, ...)` whose slice is passed to a sorting call later in
// the same enclosing function body.
func isCollectThenSort(pass *analysis.Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return false
	}
	target, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" || len(call.Args) == 0 {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != target.Name {
		return false
	}
	targetObj := pass.TypesInfo.Uses[first]
	if targetObj == nil {
		targetObj = pass.TypesInfo.Defs[target]
	}

	// Look for a later sorting call taking the same slice.
	sorted := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		arg, ok := call.Args[0].(*ast.Ident)
		if ok && pass.TypesInfo.Uses[arg] == targetObj {
			sorted = true
		}
		return true
	})
	return sorted
}

// isSortCall recognizes ref.Sort, the sort package and the slices package.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "fdp/internal/ref":
		return obj.Name() == "Sort"
	case "sort", "slices":
		return true
	}
	return false
}
