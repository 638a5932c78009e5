// Package lockgraph infers the whole-program mutex acquisition graph and
// verifies it stays an order: nodes are lock identities (a named type's
// mutex field, or a package-level mutex variable), and an edge A → B means
// some function acquires B while holding A — directly, or through any
// statically resolvable chain of calls, across package boundaries. A cycle
// in that graph is a potential deadlock; lockgraph reports the acquisition
// that closes one, with the full path of every participating edge.
//
// The DESIGN.md §12 order (freezeMu → actMu → one leaf) is not
// configuration here: the established edges freezeMu → actMu → {mbMu,
// exitMu, oracleMu} are inferred from the pause/epoch code itself, so any
// later acquisition against that order closes a cycle and is reported with
// no analyzer change. The one §12 clause that is an assertion rather than
// an inference — leaf-ness — is declared in the source it binds:
//
//	mbMu sync.Mutex //fdp:lockleaf
//
// marks a mutex terminal, and lockgraph reports any acquisition performed
// while it is held.
//
// Per function, the analysis is lexical in source order — an approximation
// (Go lock usage is not statically decidable), exact for the straight-line
// and branch-local-release patterns §12 prescribes. Across functions it is
// a fixpoint over summaries — which locks a function may acquire (with an
// example path), which it still holds when it returns (pauseAll), and
// which it releases without acquiring (resumeAll) — exported as facts so
// callers in other packages see through calls. Interface-dispatched calls
// are opaque (no callee, no summary) — edges through them are not inferred,
// which is the usual trade of a static call graph.
//
// The same held set carries two more rules:
//
//   - Pairing: every mutex, in every package, is released on all paths. A
//     lock still held at a return statement or at the end of a function,
//     with no deferred release covering it, is reported, and so is an
//     Unlock of a lock the function never acquired. A lock held through a
//     callee's escaping acquisition counts: a caller of pauseAll holds
//     freezeMu and actMu until its matching resumeAll call. The one
//     sanctioned escape is the handoff pair itself, inferred from the
//     summaries: a function that directly locks exactly the set some
//     function of the same package releases without acquiring, and that
//     releasing function.
//   - Oracle serialization: every (sim.Oracle).Evaluate call site in
//     internal/parallel runs with parallel.Runtime.oracleMu held — an
//     epoch's validation (validateExitOn) and its cache refresh — so a
//     stateful oracle never races with itself, whoever drives the epoch.
package lockgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fdp/internal/analysis"
)

// Analyzer is the lockgraph pass.
var Analyzer = &analysis.Analyzer{
	Name:      "lockgraph",
	Doc:       "infer the whole-program mutex acquisition graph, report cycles (with full acquisition paths), acquisitions under a //fdp:lockleaf mutex, locks not released on all paths, and oracle evaluation outside oracleMu (DESIGN.md §12)",
	Run:       run,
	FactTypes: []analysis.Fact{(*FuncLocks)(nil), (*PkgGraph)(nil)},
}

// LeafDirective marks a mutex declaration as terminal.
const LeafDirective = "//fdp:lockleaf"

// OrderedDirective marks a mutex whose instances (the analysis merges all
// instances of a field into one node) are always acquired in a globally
// consistent instance order — ascending shard index, reference order — so a
// self-edge on the merged node is sanctioned rather than a deadlock.
const OrderedDirective = "//fdp:lockordered"

// FuncLocks summarizes one function's lock behavior for its callers.
type FuncLocks struct {
	// Acquires maps every lock the function may acquire, directly or
	// transitively, to an example acquisition path (call frames, outermost
	// first, each "func (file:line)").
	Acquires map[string][]string
	// EscapingAcquires are locks still held when the function returns
	// (the pauseAll half of a handoff pair).
	EscapingAcquires []string
	// EscapingReleases are locks released without a prior acquisition in
	// the function (the resumeAll half).
	EscapingReleases []string
}

// AFact marks FuncLocks as a fact.
func (*FuncLocks) AFact() {}

// Edge is one inferred acquisition-order edge with an example path.
type Edge struct {
	From string
	To   string
	Path []string // call frames, outermost first
	Pos  string   // "file:line" of the acquiring statement
}

// PkgGraph is the acquisition graph visible at a package: every edge and
// leaf declaration of the package and its transitive dependencies.
type PkgGraph struct {
	Edges []Edge
	// Leaves and Ordered carry the //fdp:lockleaf and //fdp:lockordered
	// declarations, so the assertions bind cross-package acquisitions too.
	Leaves  []string
	Ordered []string
}

// AFact marks PkgGraph as a fact.
func (*PkgGraph) AFact() {}

// --- lock identity -------------------------------------------------------

// isMutexType reports whether t (after deref) is sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockKey names the mutex in recv (the X of recv.Lock()): a field key
// "pkg.Type.field" merging every instance of the type, or a package-level
// var key "pkg.var". Locals and unresolvable expressions return ok=false —
// they cannot participate in a cross-function cycle under this analysis.
func lockKey(pass *analysis.Pass, recv ast.Expr) (string, bool) {
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		sel := pass.TypesInfo.Selections[x]
		if sel == nil {
			// Qualified package-level var: pkg.Mu
			if obj, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && !obj.IsField() && obj.Pkg() != nil {
				return obj.Pkg().Name() + "." + obj.Name(), true
			}
			return "", false
		}
		field, ok := sel.Obj().(*types.Var)
		if !ok || !field.IsField() {
			return "", false
		}
		recvT := sel.Recv()
		if ptr, isPtr := recvT.(*types.Pointer); isPtr {
			recvT = ptr.Elem()
		}
		named, isNamed := recvT.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil {
			return "", false
		}
		return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + field.Name(), true
	case *ast.Ident:
		obj, ok := pass.TypesInfo.Uses[x].(*types.Var)
		if !ok || obj.IsField() || obj.Pkg() == nil {
			return "", false
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return "", false // local mutex: out of scope
		}
		return obj.Pkg().Name() + "." + obj.Name(), true
	}
	return "", false
}

// mutexOp recognizes recv.Lock/RLock/Unlock/RUnlock() on a sync mutex.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	var acq bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acq = true
	case "Unlock", "RUnlock":
		acq = false
	default:
		return "", false, false
	}
	if !isMutexType(pass.TypesInfo.TypeOf(sel.X)) {
		return "", false, false
	}
	k, kOK := lockKey(pass, sel.X)
	if !kOK {
		return "", false, false
	}
	return k, acq, true
}

// calledFunc resolves a call to the *types.Func it names (any package),
// interface methods included; nil for conversions, builtins and func values.
func calledFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
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

// calleeFunc is calledFunc for calls with a static callee.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fn := calledFunc(pass, call)
	if fn == nil {
		return nil
	}
	if sig, sigOK := fn.Type().(*types.Signature); sigOK && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return nil // dynamic dispatch: no static summary
		}
	}
	return fn
}

// --- per-function op sequences ------------------------------------------

type opKind int

const (
	opLock opKind = iota
	opUnlock
	opCall
	opDeferCall // deferred call: its escaping releases apply at return
	opEvaluate  // (sim.Oracle).Evaluate call site in internal/parallel
	opReturn    // return statement; pos is its end, after the calls in its results
	opEnd       // falling off the end of the body
)

type op struct {
	pos      token.Pos
	at       token.Pos // opReturn: where the statement starts
	kind     opKind
	key      string      // opLock/opUnlock
	deferred bool        // opUnlock via defer
	callee   *types.Func // opCall
}

type funcInfo struct {
	fn  *types.Func
	ops []op
}

// Scope of the oracle-serialization rule.
const (
	oraclePkg      = "fdp/internal/parallel"
	oracleEvaluate = "(fdp/internal/sim.Oracle).Evaluate"
	oracleMuKey    = "parallel.Runtime.oracleMu"
)

func collect(pass *analysis.Pass) []*funcInfo {
	checkOracle := analysis.PkgPath(pass.Pkg) == oraclePkg
	var infos []*funcInfo
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
			fi := &funcInfo{fn: fn}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // literals run later; their locks are their own
				case *ast.GoStmt:
					// The spawned goroutine runs concurrently: the caller
					// neither holds locks across it nor inherits what it
					// acquires or leaves held.
					return false
				case *ast.DeferStmt:
					if key, acq, ok := mutexOp(pass, n.Call); ok && !acq {
						fi.ops = append(fi.ops, op{pos: n.Pos(), kind: opUnlock, key: key, deferred: true})
					} else if callee := calleeFunc(pass, n.Call); callee != nil {
						fi.ops = append(fi.ops, op{pos: n.Pos(), kind: opDeferCall, callee: callee})
					}
					return false
				case *ast.ReturnStmt:
					fi.ops = append(fi.ops, op{pos: n.End(), at: n.Pos(), kind: opReturn})
				case *ast.CallExpr:
					if key, acq, ok := mutexOp(pass, n); ok {
						kind := opUnlock
						if acq {
							kind = opLock
						}
						fi.ops = append(fi.ops, op{pos: n.Pos(), kind: kind, key: key})
						return true
					}
					if fn := calledFunc(pass, n); checkOracle && fn != nil && fn.FullName() == oracleEvaluate {
						fi.ops = append(fi.ops, op{pos: n.Pos(), kind: opEvaluate})
					} else if callee := calleeFunc(pass, n); callee != nil {
						fi.ops = append(fi.ops, op{pos: n.Pos(), kind: opCall, callee: callee})
					}
				}
				return true
			})
			// A body ending in a return was judged there; any other falls off
			// its closing brace.
			if n := len(fd.Body.List); n == 0 || !isReturn(fd.Body.List[n-1]) {
				fi.ops = append(fi.ops, op{pos: fd.Body.Rbrace, kind: opEnd})
			}
			sort.SliceStable(fi.ops, func(i, j int) bool { return fi.ops[i].pos < fi.ops[j].pos })
			infos = append(infos, fi)
		}
	}
	return infos
}

func isReturn(s ast.Stmt) bool {
	_, ok := s.(*ast.ReturnStmt)
	return ok
}

// --- summary fixpoint ----------------------------------------------------

// finalReplay is what the post-fixpoint replay of a function reports into;
// the fixpoint iterations replay with none.
type finalReplay struct {
	// edge receives every acquisition made while another lock is held.
	edge func(from, to string, path []string, pos token.Pos)
	// acquired and released hold, as joined sorted keys, every lock set some
	// function of the package leaves held, or releases without acquiring:
	// the two halves of a sanctioned handoff must match across them.
	acquired, released map[string]bool
}

// heldLock is one entry of the replay's held set. An entry outlives its
// count reaching zero: a second Unlock after a branch-local release
// (Lock; if c {Unlock; return}; …; Unlock) is that idiom, not the release
// of a lock the function never took.
type heldLock struct {
	n      int
	path   []string  // how the latest acquisition was reached
	pos    token.Pos // its Lock, or the call that came back holding it
	direct bool      // by a Lock in this function, not through a callee
}

// summarize replays fi's ops against the current summaries and returns the
// resulting FuncLocks. With final set (the post-fixpoint replay only) it
// also records the edges the replay creates and reports the pairing and
// oracle-serialization findings.
func summarize(pass *analysis.Pass, fi *funcInfo, local map[*types.Func]*FuncLocks, final *finalReplay) *FuncLocks {
	frame := func(pos token.Pos) string {
		p := pass.Fset.Position(pos)
		return fmt.Sprintf("%s (%s:%d)", fi.fn.Name(), shortFile(p.Filename), p.Line)
	}
	lookup := func(fn *types.Func) *FuncLocks {
		if s, ok := local[fn]; ok {
			return s
		}
		s := new(FuncLocks)
		if pass.ImportObjectFact(fn, s) {
			return s
		}
		return nil
	}

	out := &FuncLocks{Acquires: make(map[string][]string)}
	held := make(map[string]*heldLock)
	// heldBeyond lists the locks held more often than covered releases them:
	// with nil, the held set.
	heldBeyond := func(covered map[string]int) []string {
		var ks []string
		for k, h := range held {
			if h.n > covered[k] {
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		return ks
	}
	// deferred counts the releases that run at return, direct or through a
	// deferred call; leaked lists the held locks none seen so far will drop.
	deferred := make(map[string]int)
	leaked := func() []string { return heldBeyond(deferred) }
	escapingReleases := map[string]bool{}

	acquire := func(key string, path []string, pos token.Pos) {
		if _, seen := out.Acquires[key]; !seen {
			out.Acquires[key] = path
		}
		if final != nil {
			for _, h := range heldBeyond(nil) {
				final.edge(h, key, path, pos)
			}
		}
	}
	hold := func(key string, path []string, pos token.Pos, direct bool) {
		h := held[key]
		if h == nil {
			h = new(heldLock)
			held[key] = h
		}
		h.n++
		h.path, h.pos, h.direct = path, pos, direct
	}
	release := func(key string, pos token.Pos) {
		switch h := held[key]; {
		case h == nil:
			escapingReleases[key] = true
			if final != nil && !final.acquired[strings.Join(local[fi.fn].EscapingReleases, ",")] {
				pass.Reportf(pos, "%s released without a preceding acquisition in this function, and no function of the package leaves exactly the released set held; path: %s", key, frame(pos))
			}
		case h.n > 0:
			h.n--
		}
	}

	for _, o := range fi.ops {
		switch o.kind {
		case opLock:
			path := []string{frame(o.pos)}
			acquire(o.key, path, o.pos)
			hold(o.key, path, o.pos, true)
		case opUnlock:
			if o.deferred {
				deferred[o.key]++
			} else {
				release(o.key, o.pos)
			}
		case opCall:
			s := lookup(o.callee)
			if s == nil {
				continue
			}
			via := func(key string) []string { return append([]string{frame(o.pos)}, s.Acquires[key]...) }
			for _, key := range sortedKeys(s.Acquires) {
				acquire(key, via(key), o.pos)
			}
			for _, key := range s.EscapingAcquires {
				hold(key, via(key), o.pos, false)
			}
			for _, key := range s.EscapingReleases {
				release(key, o.pos)
			}
		case opDeferCall:
			// A deferred call runs at return: its escaping releases (the
			// resumeAll half of a handoff) close what the body left open,
			// exactly like a deferred Unlock. Its acquisitions still count
			// for the caller.
			s := lookup(o.callee)
			if s == nil {
				continue
			}
			for key, path := range s.Acquires {
				if _, seen := out.Acquires[key]; !seen {
					out.Acquires[key] = path
				}
			}
			for _, key := range s.EscapingReleases {
				deferred[key]++
			}
		case opEvaluate:
			if h := held[oracleMuKey]; final != nil && (h == nil || h.n == 0) {
				pass.Reportf(o.pos, "oracle.Evaluate outside an oracleMu critical section; §12 serializes all oracle evaluations so stateful oracles never race with themselves; path: %s", frame(o.pos))
			}
		case opReturn, opEnd:
			ks := leaked()
			if final == nil || len(ks) == 0 {
				continue
			}
			handoff := final.released[strings.Join(ks, ",")]
			for _, k := range ks {
				handoff = handoff && held[k].direct
			}
			if handoff {
				continue
			}
			first := held[ks[0]]
			if o.kind == opReturn {
				pass.Reportf(o.at, "return while holding %s with no deferred release; every Lock needs an Unlock on all paths; path: %s",
					strings.Join(ks, ", "), strings.Join(first.path, " → "))
			} else {
				pass.Reportf(first.pos, "%s locked but never released in this function, and no function of the package releases exactly that set; path: %s",
					strings.Join(ks, ", "), strings.Join(first.path, " → "))
			}
		}
	}
	out.EscapingAcquires = leaked()
	out.EscapingReleases = sortedSet(escapingReleases)
	return out
}

func sortedKeys(m map[string][]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedSet(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func size(s *FuncLocks) int {
	return len(s.Acquires) + len(s.EscapingAcquires) + len(s.EscapingReleases)
}

// shortFile trims a filename to its last two path segments for readable
// frames.
func shortFile(name string) string {
	parts := strings.Split(name, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

// --- leaf declarations ---------------------------------------------------

// collectAnnotated finds struct fields and package-level vars of mutex type
// whose declaration carries the given directive.
func collectAnnotated(pass *analysis.Pass, directive string) []string {
	var leaves []string
	hasDirective := func(cgs ...*ast.CommentGroup) bool {
		for _, cg := range cgs {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, directive) {
					return true
				}
			}
		}
		return false
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !hasDirective(field.Doc, field.Comment) {
					continue
				}
				t := pass.TypesInfo.TypeOf(field.Type)
				if !isMutexType(t) {
					continue
				}
				for _, name := range field.Names {
					leaves = append(leaves, pass.Pkg.Name()+"."+ts.Name.Name+"."+name.Name)
				}
			}
			return true
		})
		// Package-level mutex vars.
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || !hasDirective(gd.Doc, vs.Doc, vs.Comment) {
					continue
				}
				for _, name := range vs.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isMutexType(obj.Type()) {
						leaves = append(leaves, pass.Pkg.Name()+"."+name.Name)
					}
				}
			}
		}
	}
	sort.Strings(leaves)
	return leaves
}

// --- the pass ------------------------------------------------------------

func run(pass *analysis.Pass) (any, error) {
	infos := collect(pass)

	// Intra-package fixpoint: summaries grow monotonically, so iterate
	// until the total size stops changing.
	local := make(map[*types.Func]*FuncLocks, len(infos))
	for _, fi := range infos {
		local[fi.fn] = &FuncLocks{Acquires: map[string][]string{}}
	}
	prev := -1
	for iter := 0; iter < 2*len(infos)+2; iter++ { // cap guards pathological recursion
		total := 0
		for _, fi := range infos {
			s := summarize(pass, fi, local, nil)
			local[fi.fn] = s
			total += size(s)
		}
		if total == prev {
			break
		}
		prev = total
	}

	// Export the per-function summaries so callers in downstream packages
	// see through calls into this package.
	for _, fi := range infos {
		if s := local[fi.fn]; size(s) > 0 {
			pass.ExportObjectFact(fi.fn, s)
		}
	}

	// Final replay records this package's edges and reports the pairing and
	// oracle findings, with both halves of every handoff the package's
	// summaries contain to judge them against.
	type localEdge struct {
		Edge
		pos token.Pos
	}
	var localEdges []localEdge
	edgeSeen := make(map[string]bool)
	final := &finalReplay{
		edge: func(from, to string, path []string, pos token.Pos) {
			p := pass.Fset.Position(pos)
			e := localEdge{Edge: Edge{From: from, To: to, Path: path, Pos: fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)}, pos: pos}
			sig := from + "→" + to + "@" + e.Pos
			if edgeSeen[sig] {
				return
			}
			edgeSeen[sig] = true
			localEdges = append(localEdges, e)
		},
		acquired: make(map[string]bool),
		released: make(map[string]bool),
	}
	for _, s := range local {
		final.acquired[strings.Join(s.EscapingAcquires, ",")] = true
		final.released[strings.Join(s.EscapingReleases, ",")] = true
	}
	for _, fi := range infos {
		summarize(pass, fi, local, final)
	}

	// Merge the dependency graphs. Self-edges never enter the merged graph:
	// a sanctioned (//fdp:lockordered) one carries no cross-lock order
	// information, and an unsanctioned one is diagnosed below.
	merged := &PkgGraph{}
	leafSet := make(map[string]bool)
	orderedSet := make(map[string]bool)
	haveEdge := make(map[string]bool)
	addEdge := func(e Edge) {
		sig := e.From + "→" + e.To + "@" + e.Pos
		if e.From == e.To || haveEdge[sig] {
			return
		}
		haveEdge[sig] = true
		merged.Edges = append(merged.Edges, e)
	}
	for _, imp := range pass.Pkg.Imports() {
		g := new(PkgGraph)
		if !pass.ImportPackageFact(imp, g) {
			continue
		}
		for _, e := range g.Edges {
			addEdge(e)
		}
		for _, l := range g.Leaves {
			leafSet[l] = true
		}
		for _, o := range g.Ordered {
			orderedSet[o] = true
		}
	}
	for _, l := range collectAnnotated(pass, LeafDirective) {
		leafSet[l] = true
	}
	for _, o := range collectAnnotated(pass, OrderedDirective) {
		orderedSet[o] = true
	}
	depEdgeCount := len(merged.Edges)
	for _, e := range localEdges {
		addEdge(e.Edge)
	}
	merged.Leaves = sortedSet(leafSet)
	merged.Ordered = sortedSet(orderedSet)
	sort.Slice(merged.Edges[:depEdgeCount], func(i, j int) bool { // keep dep edges deterministic
		a, b := merged.Edges[i], merged.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Pos < b.Pos
	})
	pass.ExportPackageFact(merged)

	// adjacency for reachability
	succ := make(map[string][]Edge)
	for _, e := range merged.Edges {
		succ[e.From] = append(succ[e.From], e)
	}

	// Diagnostics: every local edge is checked against the merged graph.
	for _, e := range localEdges {
		if leafSet[e.From] {
			pass.Reportf(e.pos, "acquiring %s while holding %s violates its //fdp:lockleaf declaration (leaf locks are terminal); path: %s",
				e.To, e.From, strings.Join(e.Path, " → "))
			continue
		}
		if e.From == e.To {
			if !orderedSet[e.From] {
				pass.Reportf(e.pos, "lock self-cycle: %s acquired while already held; path: %s (if every holder acquires instances in a consistent order, declare //fdp:lockordered on the mutex)",
					e.To, strings.Join(e.Path, " → "))
			}
			continue
		}
		if chain := findPath(succ, e.To, e.From); chain != nil {
			var cycle []string
			var detail []string
			cycle = append(cycle, e.From, e.To)
			detail = append(detail, fmt.Sprintf("%s → %s via %s", e.From, e.To, strings.Join(e.Path, " → ")))
			for _, ce := range chain {
				cycle = append(cycle, ce.To)
				detail = append(detail, fmt.Sprintf("%s → %s via %s", ce.From, ce.To, strings.Join(ce.Path, " → ")))
			}
			pass.Reportf(e.pos, "lock cycle: %s; %s", strings.Join(cycle, " → "), strings.Join(detail, "; "))
		}
	}
	return nil, nil
}

// findPath returns a shortest edge chain from → … → to in the graph, or
// nil if to is unreachable.
func findPath(succ map[string][]Edge, from, to string) []Edge {
	type qe struct {
		node string
		path []Edge
	}
	visited := map[string]bool{from: true}
	queue := []qe{{node: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range succ[cur.node] {
			if visited[e.To] {
				continue
			}
			next := append(append([]Edge{}, cur.path...), e)
			if e.To == to {
				return next
			}
			visited[e.To] = true
			queue = append(queue, qe{node: e.To, path: next})
		}
	}
	return nil
}
