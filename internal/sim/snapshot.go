package sim

import (
	"fdp/internal/graph"
	"fdp/internal/ref"
)

// PG returns the current process graph, built from scratch: one node per
// non-gone process, an explicit edge (a,b) for every reference of b stored in
// a's variables, and an implicit edge (a,b) for every reference of b carried
// by a message in a.Ch. Gone processes are removed from PG together with
// their incident edges, so edges to gone processes are omitted. O(n+m) per
// call; the caller owns the graph.
func (w *World) PG() *graph.Graph {
	g := graph.New()
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		g.AddNode(p.id)
	}
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		for _, r := range p.proto.Refs() {
			if w.isLiveTarget(r) {
				g.AddEdge(p.id, r, graph.Explicit)
			}
		}
		for _, m := range p.ch {
			for _, ri := range m.Refs {
				if w.isLiveTarget(ri.Ref) {
					g.AddEdge(p.id, ri.Ref, graph.Implicit)
				}
			}
		}
	}
	return g
}

func (w *World) isLiveTarget(r ref.Ref) bool {
	p := w.lookup(r)
	return p != nil && p.life != Gone
}

// Hibernating returns the set of hibernating processes: p is hibernating if
// p is asleep, p.Ch is empty, and all processes q with a directed path to p
// in PG are also asleep with empty channels. By the claim of Foreback et
// al. quoted in Section 1.1, a hibernating process is permanently asleep
// under any copy-store-send protocol. Only asleep processes can hibernate:
// with none — every FDP state — the set is empty, nil, and nothing is
// swept. Otherwise this builds PG; the set is memoized per w.gen and is a
// read-only view.
func (w *World) Hibernating() ref.Set {
	if w.asleep == 0 {
		return nil
	}
	w.syncView()
	if w.hibCache != nil && w.hibGen == w.gen {
		return w.hibCache
	}
	// S: the "active" processes — awake, or asleep with a nonempty channel.
	var active []ref.Ref
	for _, p := range w.procs {
		if p != nil && p.life != Gone && (p.life == Awake || len(p.ch) > 0) {
			active = append(active, p.id)
		}
	}
	tainted := w.PG().ForwardReachAll(active)
	out := ref.NewSet()
	for _, p := range w.procs {
		if p != nil && p.life == Asleep && len(p.ch) == 0 && !tainted.Has(p.id) {
			out.Add(p.id)
		}
	}
	w.hibCache, w.hibGen = out, w.gen
	return out
}

// relevant reports whether p is relevant: neither gone nor in hib, the
// hibernating set.
func relevant(p *process, hib ref.Set) bool {
	return p != nil && p.life != Gone && !hib.Has(p.id)
}

// Relevant returns the set of relevant processes: neither gone nor
// hibernating (Section 1.2).
func (w *World) Relevant() ref.Set {
	hib := w.Hibernating()
	out := ref.NewSet()
	for _, p := range w.procs {
		if relevant(p, hib) {
			out.Add(p.id)
		}
	}
	return out
}

// RelevantPG returns PG restricted to relevant processes — the graph oracles
// are defined over. Built per call, like PG; the caller owns it.
func (w *World) RelevantPG() *graph.Graph {
	hib := w.Hibernating()
	pg := w.PG()
	for _, r := range hib.Sorted() {
		pg.RemoveNode(r)
	}
	return pg
}

// RelevantDegree returns the number of relevant processes u has edges with
// (in either direction, any kind) in the relevant process graph, plus
// whether u itself is relevant — the quantity the SINGLE oracle decides on.
// A leaver's degree is its ledger row's length less the neighbours that
// hibernate (none while nothing is asleep): O(1) then, O(deg(u)) otherwise,
// with no allocation. A staying process's degree is read off RelevantPG.
func (w *World) RelevantDegree(u ref.Ref) (int, bool) {
	p := w.lookup(u)
	if p == nil || p.life == Gone {
		return 0, false
	}
	if p.mode != Leaving {
		g := w.RelevantPG()
		return g.Degree(u), g.HasNode(u)
	}
	w.syncView()
	hib := w.Hibernating()
	if hib.Has(u) {
		return 0, false
	}
	if hib == nil {
		return w.ledger.Degree(u), true
	}
	n := 0
	for _, e := range w.ledger.Pairs(u) {
		if !hib.Has(e.Key) {
			n++
		}
	}
	return n, true
}

// NIDEC reports the verdict of the NIDEC oracle for u: u is relevant, its
// channel is empty and no relevant process has an edge into u. A leaver is
// judged on its ledger row with no allocation. With the channel empty u has
// no implicit edge of its own, so the edges into u from a neighbour q are
// the row's count for q less the copies of q among u's stored references,
// which syncView has just counted; the row never counts fewer, so they are
// all zero exactly when the two sums over relevant neighbours agree. A
// staying process is judged on RelevantPG.
func (w *World) NIDEC(u ref.Ref) bool {
	p := w.lookup(u)
	if p == nil || p.life == Gone || len(p.ch) > 0 {
		return false
	}
	if p.mode != Leaving {
		g := w.RelevantPG()
		return g.HasNode(u) && len(g.Pred(u)) == 0
	}
	w.syncView()
	hib := w.Hibernating()
	if hib.Has(u) {
		return false
	}
	in := 0
	for _, e := range w.ledger.Pairs(u) {
		if !hib.Has(e.Key) {
			in += int(e.Val)
		}
	}
	for _, r := range p.proto.Refs() {
		if q := w.lookup(r); q != p && relevant(q, hib) {
			in--
		}
	}
	return in == 0
}

// Variant selects the problem being solved: FDP (exit available) or FSP
// (sleep available).
type Variant uint8

const (
	// FDP is the Finite Departure Problem: leaving processes must end gone.
	FDP Variant = iota
	// FSP is the Finite Sleep Problem: leaving processes must end
	// hibernating.
	FSP
)

// String names the variant.
func (v Variant) String() string {
	if v == FDP {
		return "FDP"
	}
	return "FSP"
}

// Legitimate reports whether the current state is legitimate per Section
// 1.2: (i) every staying process is awake, (ii) every leaving process is
// gone (FDP) or hibernating (FSP), and (iii) for each weakly connected
// component of the initial process graph, the staying processes of that
// component still form a weakly connected component. SealInitialState must
// have been called.
func (w *World) Legitimate(v Variant) bool {
	var hib ref.Set
	for _, p := range w.procs {
		if p == nil {
			continue
		}
		switch p.mode {
		case Staying:
			if p.life != Awake {
				return false
			}
		case Leaving:
			switch v {
			case FDP:
				if p.life != Gone {
					return false
				}
			case FSP:
				if p.life == Gone {
					return false
				}
				if hib == nil {
					hib = w.Hibernating()
				}
				if !hib.Has(p.id) {
					return false
				}
			}
		}
	}
	return w.StayingComponentsPreserved()
}

// StayingComponentsPreserved checks legitimacy condition (iii): per initial
// component, the staying processes are still weakly connected in the current
// PG (paths may only use staying processes, since in a legitimate state all
// other processes are excluded from the overlay). A component with two
// staying members or more fails if one of them is gone. Union-find over the
// staying processes' stored references; no graph is built.
func (w *World) StayingComponentsPreserved() bool {
	return w.joined(func(p *process) bool { return p.mode == Staying })
}

// RelevantComponentsIntact checks the Lemma 2 safety invariant during a run:
// relevant processes that started in the same initial component are still
// weakly connected in the subgraph of PG induced by relevant processes. This
// is strictly stronger than condition (iii) and must hold in *every* state
// of a computation of a safe protocol. Union-find over the relevant
// processes' stored references; while nothing is asleep no graph is built.
func (w *World) RelevantComponentsIntact() bool {
	hib := w.Hibernating()
	return w.joined(func(p *process) bool { return relevant(p, hib) })
}

// AwakeCount returns the number of awake processes. O(1): the counter is
// maintained on every lifecycle transition.
func (w *World) AwakeCount() int { return w.awake }

// GoneCount returns the number of gone processes.
func (w *World) GoneCount() int {
	n := 0
	for _, p := range w.procs {
		if p != nil && p.life == Gone {
			n++
		}
	}
	return n
}

// LeavingRemaining returns the number of leaving processes not yet gone.
func (w *World) LeavingRemaining() int {
	n := 0
	for _, p := range w.procs {
		if p != nil && p.mode == Leaving && p.life != Gone {
			n++
		}
	}
	return n
}
