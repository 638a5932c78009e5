package sim

import (
	"fdp/internal/graph"
	"fdp/internal/ref"
)

// PG returns the current process graph: one node per non-gone process, an
// explicit edge (a,b) for every reference of b stored in a's variables, and
// an implicit edge (a,b) for every reference of b carried by a message in
// a.Ch. Gone processes are removed from PG together with their incident
// edges, so edges to gone processes are omitted.
//
// The graph is maintained incrementally (see pg.go), so this is O(1) after
// the first call, which seeds it and drops the degree ledger. The returned
// graph is a live read-only view: callers must not mutate it and must Clone
// it to retain a snapshot across world mutations.
func (w *World) PG() *graph.Graph {
	return w.pgView()
}

// RebuildPG constructs the process graph from scratch, ignoring the
// incrementally maintained one. It is the reference implementation the
// differential tests compare against, and what callers should use when they
// intend to mutate the result.
func (w *World) RebuildPG() *graph.Graph {
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
// under any copy-store-send protocol.
func (w *World) Hibernating() ref.Set {
	pg := w.pgView()
	if w.hibCache != nil && w.hibGen == w.gen {
		return w.hibCache
	}
	out := ref.NewSet()
	// Only asleep processes can hibernate: with none, skip the sweep. This
	// is the steady state of every FDP run, where sleep is never used.
	if w.asleep > 0 {
		// S: the "active" processes — awake, or asleep with a nonempty
		// channel.
		var active []ref.Ref
		for _, p := range w.procs {
			if p == nil || p.life == Gone {
				continue
			}
			if p.life == Awake || len(p.ch) > 0 {
				active = append(active, p.id)
			}
		}
		tainted := pg.ForwardReachAll(active)
		for _, p := range w.procs {
			if p == nil || p.life != Asleep || len(p.ch) > 0 {
				continue
			}
			if !tainted.Has(p.id) {
				out.Add(p.id)
			}
		}
	}
	w.hibCache, w.hibGen = out, w.gen
	return out
}

// Relevant returns the set of relevant processes: neither gone nor
// hibernating (Section 1.2). Cached per generation; the returned set is a
// read-only view.
func (w *World) Relevant() ref.Set {
	w.pgView()
	if w.relCache != nil && w.relGen == w.gen {
		return w.relCache
	}
	hib := w.Hibernating()
	out := ref.NewSet()
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		if !hib.Has(p.id) {
			out.Add(p.id)
		}
	}
	w.relCache, w.relGen = out, w.gen
	return out
}

// RelevantPG returns PG restricted to relevant processes — the graph oracles
// are defined over. Cached per generation; when nothing hibernates (every
// FDP state) it is PG itself. Like PG, the result is a read-only view.
func (w *World) RelevantPG() *graph.Graph {
	pg := w.pgView()
	if w.relPGCache != nil && w.relPGGen == w.gen {
		return w.relPGCache
	}
	var out *graph.Graph
	if w.Hibernating().Len() == 0 {
		// Every non-gone process is relevant and PG has exactly the
		// non-gone processes as nodes: the induced subgraph is PG.
		out = pg
	} else {
		out = pg.InducedSubgraph(w.Relevant())
	}
	w.relPGCache, w.relPGGen = out, w.gen
	return out
}

// RelevantDegree returns the number of relevant processes u has edges with
// (in either direction, any kind) in the relevant process graph, plus
// whether u itself is relevant — the quantity the SINGLE oracle decides on.
// A leaver's degree while nothing is asleep comes from the ledger, unless
// the full PG is already kept; any other query is answered on the PG. O(1)
// when nothing hibernates, O(deg(u)) otherwise, with no allocation.
func (w *World) RelevantDegree(u ref.Ref) (int, bool) {
	if w.pg == nil && w.asleep == 0 {
		p := w.lookup(u)
		if p == nil || p.life == Gone {
			return 0, false
		}
		if p.mode == Leaving {
			w.syncView()
			return w.ledger[ref.Index(u)].Len(), true
		}
	}
	pg := w.pgView()
	hib := w.Hibernating()
	if hib.Len() == 0 {
		if !pg.HasNode(u) {
			return 0, false
		}
		return pg.Degree(u), true
	}
	if !pg.HasNode(u) || hib.Has(u) {
		return 0, false
	}
	return pg.UndirectedDegreeIn(u, w.Relevant()), true
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
// staying processes' synced references; no graph is built.
func (w *World) StayingComponentsPreserved() bool {
	uf := w.unite(true)
	for _, comp := range w.initialComponents {
		var first ref.Ref
		members, joined := 0, true
		for _, r := range comp {
			p := w.lookup(r)
			if p == nil || p.mode != Staying {
				continue
			}
			members++
			switch {
			case p.life == Gone:
				joined = false
			case first.IsNil():
				first = r
			case !uf.Same(first, r):
				joined = false
			}
		}
		if members >= 2 && !joined {
			return false
		}
	}
	return true
}

// RelevantComponentsIntact checks the Lemma 2 safety invariant during a run:
// relevant processes that started in the same initial component are still
// weakly connected in the subgraph of PG induced by relevant processes. This
// is strictly stronger than condition (iii) and must hold in *every* state
// of a computation of a safe protocol.
func (w *World) RelevantComponentsIntact() bool {
	relevant := w.Relevant()
	pg := w.RelevantPG()
	for _, comp := range w.initialComponents {
		var members []ref.Ref
		for _, r := range comp {
			if relevant.Has(r) {
				members = append(members, r)
			}
		}
		if len(members) < 2 {
			continue
		}
		reach := pg.UndirectedReach(members[0])
		for _, m := range members[1:] {
			if !reach.Has(m) {
				return false
			}
		}
	}
	return true
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
