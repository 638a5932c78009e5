// Package primdecomp machine-checks the paper's central discipline: a
// protocol in 𝒫 is safe to wrap (Theorems 1 and 4) exactly because every
// action decomposes into the four safe primitives — Introduction ♦,
// Delegation ♥, Fusion ♠, Reversal ♣ — plus the model-level absorb step
// and the exit action. internal/primitives proves the primitives preserve
// the process graph on toy graphs; primdecomp pins the production
// protocols to that vocabulary statically: in a package declared
// decomposable, every statement that moves or stores a reference or
// mutates process-graph edges must be sanctioned by the primitive
// vocabulary, and helpers are classified once with violations reported as
// a call path from the protocol surface.
//
// Package stance (package documentation, one per package):
//
//	//fdp:decomposable
//	//fdp:nondecomposable <reason>
//
// A package that declares a sim.Protocol or overlay.Protocol implementor
// must take a stance — the Foreback et al. baseline is deliberately
// nondecomposable (plain deletion instead of Reversal) and says so; every
// other protocol package opts in and is then checked.
//
// Sanctioning, from finest to coarsest:
//
//   - A statement-level marker: a comment on the move's line (or the line
//     above the statement) containing a suit symbol ♦ ♥ ♠ ♣ or the token
//     fdp:primitive. This is the showcase style of internal/core, where
//     each Algorithm 1-3 line cites its primitive.
//   - A function-level classification in the doc comment, with kinds
//     introduction, delegation, fusion, reversal, absorb, exit, init.
//
// The classification reads
//
//	//fdp:primitive <kind>[,<kind>...]
//
// Every move in a classified function is sanctioned, and calls to it from
// anywhere are too — helpers are classified once. The init kind marks
// scenario-construction surfaces (the model's arbitrary initial states), not
// protocol actions.
//
// Moves are: sends through (sim.Context).Send / (overlay.Context).Send /
// (*sim.World).Enqueue / (*sim.World).AddProcess; stores into
// struct-field-rooted locations whose type involves ref.Ref (fields,
// ref-keyed or ref-valued maps, slices, nested structs); delete on such
// maps; and ref.Set Add/Remove and ref.List Add/Remove/Clear on
// field-rooted sets. Purely local
// bookkeeping (locals, parameters, return-value assembly) moves nothing in
// the process graph and is exempt. ctx.Exit and ctx.Sleep are the model's
// own actions and need no marker.
//
// Unsanctioned moves propagate bottom-up as facts: an unclassified helper
// that moves becomes a mover, its callers inherit mover-ness, and the
// diagnostic fires at the protocol surface (an exported function or
// method) with the full offending path.
package primdecomp

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fdp/internal/analysis"
)

// Analyzer is the primdecomp pass.
var Analyzer = &analysis.Analyzer{
	Name:      "primdecomp",
	Doc:       "protocol packages must decompose every reference move into the sanctioned primitive vocabulary (♦ ♥ ♠ ♣, absorb, exit) of internal/primitives",
	Run:       run,
	FactTypes: []analysis.Fact{(*MoverFact)(nil)},
}

// MoverFact marks a function that performs an unsanctioned reference move,
// with one representative path (frames outermost-first, each
// "func (file:line): what").
type MoverFact struct {
	Path []string
}

// AFact marks MoverFact as a fact.
func (*MoverFact) AFact() {}

// Directives.
const (
	StanceDecomposable    = "//fdp:decomposable"
	StanceNondecomposable = "//fdp:nondecomposable"
	PrimitiveDirective    = "//fdp:primitive"
)

var validKinds = map[string]bool{
	"introduction": true, // ♦
	"delegation":   true, // ♥
	"fusion":       true, // ♠
	"reversal":     true, // ♣
	"absorb":       true, // the model-level absorb step
	"exit":         true, // the model-level exit action
	"init":         true, // scenario construction: the arbitrary initial state
}

// suitMarkers sanction a single statement.
var suitMarkers = []string{"♦", "♥", "♠", "♣", "fdp:primitive"}

// senders are the call surfaces that put a reference in flight or mutate
// the world's process set.
var senders = map[string]string{
	"(fdp/internal/sim.Context).Send":      "sends a reference-bearing message",
	"(fdp/internal/overlay.Context).Send":  "sends a P-protocol message",
	"(*fdp/internal/sim.World).Enqueue":    "enqueues a message into the world",
	"(*fdp/internal/sim.World).AddProcess": "adds a process to the world",
}

// refSetMutators mutate a ref.Set or ref.List in place.
var refSetMutators = map[string]bool{
	"(fdp/internal/ref.Set).Add":      true,
	"(fdp/internal/ref.Set).Remove":   true,
	"(*fdp/internal/ref.List).Add":    true,
	"(*fdp/internal/ref.List).Remove": true,
	"(*fdp/internal/ref.List).Clear":  true,
}

func run(pass *analysis.Pass) (any, error) {
	stance, stancePos := packageStance(pass)
	implementor := protocolImplementor(pass)
	if stance == "" {
		if implementor != "" {
			pass.Reportf(stancePos, "package declares protocol implementor %s but takes no decomposability stance; add //fdp:decomposable or //fdp:nondecomposable <reason> to the package documentation", implementor)
		}
		return nil, nil
	}
	if stance != "decomposable" {
		return nil, nil // nondecomposable: stance recorded, nothing enforced
	}

	sanctioned := sanctionedLines(pass)

	// Collect per-function move info.
	type moveSite struct {
		pos  token.Pos
		desc string
	}
	type callSite struct {
		pos    token.Pos
		callee *types.Func
	}
	type funcInfo struct {
		fn         *types.Func
		classified bool
		moves      []moveSite // direct, unsanctioned
		calls      []callSite
	}
	var infos []*funcInfo
	byFn := make(map[*types.Func]*funcInfo)

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			fi := &funcInfo{fn: fn, classified: classification(pass, fd)}
			unsanctioned := func(pos token.Pos) bool {
				p := pass.Fset.Position(pos)
				return !sanctioned[p.Filename][p.Line]
			}
			describe := func(pos token.Pos, what string) string {
				p := pass.Fset.Position(pos)
				return fmt.Sprintf("%s (%s:%d): %s", fn.Name(), shortFile(p.Filename), p.Line, what)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						// m[k] = v adds the key to the map: judge the map's
						// type (a ref-keyed map gains a reference even when
						// the element is plain data).
						t := pass.TypesInfo.TypeOf(lhs)
						if ix, isIx := lhs.(*ast.IndexExpr); isIx {
							t = pass.TypesInfo.TypeOf(ix.X)
						}
						if fieldRooted(pass, lhs) && involvesRef(t) && unsanctioned(n.Pos()) {
							fi.moves = append(fi.moves, moveSite{n.Pos(), describe(n.Pos(), "stores a reference into "+types.ExprString(lhs))})
							break
						}
					}
				case *ast.CallExpr:
					// delete(m, k) on a field-rooted ref-bearing map
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
						if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin &&
							fieldRooted(pass, n.Args[0]) && involvesRef(pass.TypesInfo.TypeOf(n.Args[0])) && unsanctioned(n.Pos()) {
							fi.moves = append(fi.moves, moveSite{n.Pos(), describe(n.Pos(), "deletes a reference entry from "+types.ExprString(n.Args[0]))})
						}
						return true
					}
					callee := calleeFunc(pass, n)
					if callee == nil {
						return true
					}
					full := callee.FullName()
					if what, isSender := senders[full]; isSender {
						if unsanctioned(n.Pos()) {
							fi.moves = append(fi.moves, moveSite{n.Pos(), describe(n.Pos(), what)})
						}
						return true
					}
					if refSetMutators[full] {
						if sel, selOK := n.Fun.(*ast.SelectorExpr); selOK && fieldRooted(pass, sel.X) && unsanctioned(n.Pos()) {
							fi.moves = append(fi.moves, moveSite{n.Pos(), describe(n.Pos(), "mutates the reference set "+types.ExprString(sel.X))})
						}
						return true
					}
					fi.calls = append(fi.calls, callSite{n.Pos(), callee})
				}
				return true
			})
			infos = append(infos, fi)
			byFn[fn] = fi
		}
	}

	// Bottom-up mover propagation: intra-package fixpoint over the call
	// graph, with imported facts as the cross-package base.
	movers := make(map[*types.Func]*MoverFact)
	calleePath := func(fn *types.Func) *MoverFact {
		if fi, ok := byFn[fn]; ok {
			if fi.classified {
				return nil
			}
			return movers[fn]
		}
		f := new(MoverFact)
		if pass.ImportObjectFact(fn, f) {
			return f
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			if fi.classified || movers[fi.fn] != nil {
				continue
			}
			if len(fi.moves) > 0 {
				movers[fi.fn] = &MoverFact{Path: []string{fi.moves[0].desc}}
				changed = true
				continue
			}
			for _, c := range fi.calls {
				if mf := calleePath(c.callee); mf != nil {
					p := pass.Fset.Position(c.pos)
					frame := fmt.Sprintf("%s (%s:%d): calls %s", fi.fn.Name(), shortFile(p.Filename), p.Line, c.callee.Name())
					movers[fi.fn] = &MoverFact{Path: append([]string{frame}, mf.Path...)}
					changed = true
					break
				}
			}
		}
	}

	// Diagnostics fire at the protocol surface: exported movers (which
	// include every interface method a protocol implements). Unexported
	// movers export their fact instead, so a cross-package caller inherits
	// the path; exported movers are diagnosed once, here.
	for _, fi := range infos {
		mf := movers[fi.fn]
		if mf == nil {
			continue
		}
		if !ast.IsExported(fi.fn.Name()) {
			pass.ExportObjectFact(fi.fn, mf)
			continue
		}
		pos := fi.fn.Pos()
		if len(fi.moves) > 0 {
			pos = fi.moves[0].pos
		} else {
			for _, c := range fi.calls {
				if calleePath(c.callee) != nil {
					pos = c.pos
					break
				}
			}
		}
		pass.Reportf(pos, "unsanctioned reference move outside the primitive vocabulary: %s; mark the move with its primitive (♦ ♥ ♠ ♣ or //fdp:primitive) or classify the function with //fdp:primitive <kind> — see internal/primitives",
			strings.Join(mf.Path, " → "))
	}
	return nil, nil
}

// --- directives ----------------------------------------------------------

// packageStance scans the package's non-test files for a stance directive.
// The returned pos anchors the missing-stance diagnostic (package clause of
// the first file).
func packageStance(pass *analysis.Pass) (string, token.Pos) {
	stance := ""
	var anchor token.Pos
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		if anchor == token.NoPos {
			anchor = f.Name.Pos()
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				switch {
				case strings.HasPrefix(c.Text, StanceNondecomposable):
					rest := strings.TrimPrefix(c.Text, StanceNondecomposable)
					if strings.TrimSpace(rest) == "" {
						pass.Reportf(c.Pos(), "//fdp:nondecomposable needs a reason: why is this protocol outside 𝒫?")
					}
					if stance == "decomposable" {
						pass.Reportf(c.Pos(), "conflicting decomposability stances in one package")
					}
					stance = "nondecomposable"
				case strings.HasPrefix(c.Text, StanceDecomposable):
					if stance == "nondecomposable" {
						pass.Reportf(c.Pos(), "conflicting decomposability stances in one package")
					}
					stance = "decomposable"
				}
			}
		}
	}
	return stance, anchor
}

// classification reports whether fd's doc carries //fdp:primitive, and
// validates the kinds.
func classification(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if !strings.HasPrefix(c.Text, PrimitiveDirective) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, PrimitiveDirective)
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // run-on prefix: not the directive
		}
		kinds := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
		if len(kinds) == 0 {
			pass.Reportf(c.Pos(), "//fdp:primitive needs at least one kind (introduction, delegation, fusion, reversal, absorb, exit, init)")
			return true
		}
		for _, k := range kinds {
			if !validKinds[k] {
				pass.Reportf(c.Pos(), "unknown primitive kind %q (want introduction, delegation, fusion, reversal, absorb, exit, init)", k)
			}
		}
		return true
	}
	return false
}

// sanctionedLines marks, per file, the lines covered by a statement-level
// primitive marker: the marker's line, the line below it, and the full
// span of any statement starting on either (mirroring //fdplint:ignore).
func sanctionedLines(pass *analysis.Pass) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	mark := func(file string, line int) {
		if out[file] == nil {
			out[file] = make(map[int]bool)
		}
		out[file][line] = true
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		marked := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !isMarker(c.Text) {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				mark(pos.Filename, pos.Line)
				mark(pos.Filename, pos.Line+1)
				marked[pos.Line] = true
				marked[pos.Line+1] = true
			}
		}
		if len(marked) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(ast.Stmt); !ok {
				return true
			}
			start := pass.Fset.Position(n.Pos())
			if !marked[start.Line] {
				return true
			}
			end := pass.Fset.Position(n.End())
			for line := start.Line; line <= end.Line; line++ {
				mark(start.Filename, line)
			}
			return true
		})
	}
	return out
}

func isMarker(text string) bool {
	if strings.HasPrefix(text, PrimitiveDirective) {
		return true
	}
	for _, m := range suitMarkers {
		if strings.Contains(text, m) {
			return true
		}
	}
	return false
}

// --- protocol-implementor backstop ---------------------------------------

// protocolImplementor returns the name of a non-test package-level type
// implementing sim.Protocol or overlay.Protocol, or "".
func protocolImplementor(pass *analysis.Pass) string {
	var ifaces []*types.Interface
	consider := func(pkg *types.Package) {
		switch analysis.PkgPath(pkg) {
		case "fdp/internal/sim", "fdp/internal/overlay":
			if tn, ok := pkg.Scope().Lookup("Protocol").(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	consider(pass.Pkg)
	for _, imp := range pass.Pkg.Imports() {
		consider(imp)
	}
	if len(ifaces) == 0 {
		return ""
	}
	// Only types declared in non-test files count.
	nonTestPos := func(pos token.Pos) bool {
		name := pass.Fset.Position(pos).Filename
		return !strings.HasSuffix(name, "_test.go")
	}
	scope := pass.Pkg.Scope()
	var names []string
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !nonTestPos(tn.Pos()) {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		for _, iface := range ifaces {
			if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
				names = append(names, name)
				break
			}
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[0]
}

// --- move recognition ----------------------------------------------------

// fieldRooted reports whether expr contains a struct-field selection — the
// store target (or mutated set) lives in process state, not a local.
func fieldRooted(pass *analysis.Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// involvesRef reports whether t can hold a reference: ref.Ref itself, or
// any composite reachable from it (ref.Set, ref.List, []ref.Ref, maps keyed or
// valued by refs, structs with ref fields, sim.RefInfo, messages, …).
func involvesRef(t types.Type) bool {
	return involves(t, make(map[types.Type]bool))
}

func involves(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && analysis.PkgPath(obj.Pkg()) == "fdp/internal/ref" && (obj.Name() == "Ref" || obj.Name() == "Set" || obj.Name() == "List") {
			return true
		}
		return involves(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Pointer:
		return involves(u.Elem(), seen)
	case *types.Slice:
		return involves(u.Elem(), seen)
	case *types.Array:
		return involves(u.Elem(), seen)
	case *types.Map:
		return involves(u.Key(), seen) || involves(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if involves(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// calleeFunc resolves a call to its *types.Func (interface methods
// included — the sender set is interface methods).
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if selection := pass.TypesInfo.Selections[fun]; selection != nil {
			obj = selection.Obj()
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func shortFile(name string) string {
	parts := strings.Split(name, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}
