package sim

// Incremental relevant-degree and process-graph maintenance (DESIGN.md §7).
// The world keeps at most one of two structures, neither until a query
// needs one, and applies O(Δ) deltas to it at every mutation point:
//
//   - the ledger: one graph.Row per leaving process, neighbour → number of
//     edges joining the pair. A pair is counted only if an endpoint is
//     leaving, and only in a leaving side's row. A live leaver's row length
//     is its PG degree: RelevantDegree answers SINGLE from it while nothing
//     is asleep. The first degree or component query seeds it.
//   - the full PG, a graph.Graph, seeded by the first query the ledger
//     cannot answer (PG, Relevant, Hibernating, RelevantPG, a staying
//     process's degree, any degree while a process is asleep). Seeding it
//     drops the ledger; it is then maintained for good.
//
// InvalidatePG and AddProcess drop either; a staying process's exit drops
// the ledger (no row lists the leavers that count it). Code that mutates
// protocol variables outside an atomic action after a query (fault
// injectors, surgical tests) must call InvalidatePG. The mutation points:
// message enqueue and removal (the implicit edges of the references it
// carries), the end of an atomic action (the acting process's stored refs
// re-diffed against the copy synced last, pgRefs — only the acting process
// can have changed), and exit. Only edges between two live, distinct
// processes exist: additions are filtered on both endpoints, removals no-op
// once an endpoint is gone. The synced copies also feed the union-find of
// SealInitialState and StayingComponentsPreserved, so neither builds a graph
// nor calls Refs. Derived views (Hibernating, Relevant, RelevantPG) are
// cached per w.gen, which every mutation that can change them bumps.

import (
	"slices"

	"fdp/internal/graph"
	"fdp/internal/ref"
)

// ledgerRow is a leaver's row of the ledger: neighbour → edges joining the
// pair.
type ledgerRow = graph.Row[ref.Ref, int32]

// tracking reports whether a structure is seeded, which is when every live
// process's pgRefs is its synced copy.
func (w *World) tracking() bool { return w.pg != nil || w.ledger != nil }

// pgView returns the incrementally maintained process graph, seeding it (and
// dropping the ledger) on first use. Mid-action it first folds in any
// not-yet-synced ref changes of the acting process, so oracle calls made from
// inside Timeout/Deliver see the exact current state.
func (w *World) pgView() *graph.Graph {
	if w.pg == nil {
		w.seed(true)
	} else if w.current != nil {
		w.pgSyncRefs(w.current)
	}
	return w.pg
}

// syncView makes the synced copies current without asking for the full
// graph: it seeds the ledger if nothing is seeded, and otherwise folds in the
// acting process's pending delta as pgView does.
func (w *World) syncView() {
	if !w.tracking() {
		w.seed(false)
	} else if w.current != nil {
		w.pgSyncRefs(w.current)
	}
}

// seed builds the full PG (full) or the ledger from scratch, dropping the
// other, and records per process the refs snapshot future diffs are computed
// against.
func (w *World) seed(full bool) {
	w.gen++
	w.pg, w.ledger = nil, nil
	if full {
		w.pg = graph.New()
	} else {
		w.ledger = make([]ledgerRow, len(w.procs))
	}
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		if full {
			w.pg.AddNode(p.id)
		}
		p.pgRefs = append(p.pgRefs[:0], p.proto.Refs()...)
	}
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		for _, r := range p.pgRefs {
			w.edge(p, r, graph.Explicit, 1)
		}
		for i := range p.ch {
			for _, ri := range p.ch[i].Refs {
				w.edge(p, ri.Ref, graph.Implicit, 1)
			}
		}
	}
}

// edge applies d (+1 or -1) copies of the edge p->r of the given kind to the
// seeded structure. A reference to ⊥, to no process of this world, to a gone
// process or to p itself is no edge.
func (w *World) edge(p *process, r ref.Ref, kind graph.EdgeKind, d int32) {
	q := w.lookup(r)
	if q == nil || q == p || q.life == Gone {
		return
	}
	if w.pg != nil {
		if d > 0 {
			w.pg.AddEdge(p.id, r, kind)
		} else {
			w.pg.RemoveEdge(p.id, r, kind)
		}
		return
	}
	if p.mode == Leaving {
		graph.Bump(&w.ledger[ref.Index(p.id)], r, d)
	}
	if q.mode == Leaving {
		graph.Bump(&w.ledger[ref.Index(r)], p.id, d)
	}
}

// InvalidatePG discards the incremental process graph or ledger and every
// derived cache; the next query reseeds from scratch. Must be called by any
// code that mutates protocol variables (stored references) outside an atomic
// action after a query — fault injectors and tests that reach into protocol
// state directly.
func (w *World) InvalidatePG() {
	w.gen++
	w.pg, w.ledger = nil, nil
	w.hibCache = nil
	w.relCache = nil
	w.relPGCache = nil
	for _, p := range w.procs {
		if p != nil {
			p.pgRefs = nil
		}
	}
}

// pgEnqueue records the implicit edges of a message just placed in to's
// channel.
func (w *World) pgEnqueue(to *process, msg *Message) {
	w.gen++
	if !w.tracking() {
		return
	}
	for _, ri := range msg.Refs {
		w.edge(to, ri.Ref, graph.Implicit, 1)
	}
}

// pgDequeue drops the implicit edges of a message just removed from from's
// channel.
func (w *World) pgDequeue(from *process, msg *Message) {
	w.gen++
	if !w.tracking() {
		return
	}
	for _, ri := range msg.Refs {
		w.edge(from, ri.Ref, graph.Implicit, -1)
	}
}

// pgExit removes an exiting process with every edge it has — its stored
// refs, its channel's implicit edges, and all edges other processes hold
// toward it: PG drops the node; the ledger erases a leaver from its leaving
// neighbours' rows and empties its own, and is dropped on a stayer's exit.
func (w *World) pgExit(p *process) {
	w.gen++
	p.pgRefs = nil
	switch {
	case w.pg != nil:
		w.pg.RemoveNode(p.id)
	case w.ledger == nil:
	case p.mode == Leaving:
		row := &w.ledger[ref.Index(p.id)]
		for _, e := range row.Entries() {
			if w.lookup(e.Key).mode == Leaving {
				nr := &w.ledger[ref.Index(e.Key)]
				nr.Remove(nr.Find(p.id))
			}
		}
		*row = ledgerRow{}
	default:
		w.ledger = nil
	}
}

// pgSyncRefs re-diffs p's stored references against the snapshot taken at
// the last sync and applies the explicit-edge delta. Only the acting process
// can have changed, so this is O(|refs(p)|) per action. The diff is
// multiset-aware: a protocol storing the same reference twice contributes
// explicit multiplicity 2, exactly as the from-scratch build does.
func (w *World) pgSyncRefs(p *process) {
	if !w.tracking() || p.life == Gone {
		return
	}
	// Protocols enumerate Refs deterministically, so an unchanged state
	// yields an equal slice and the diff is skipped entirely.
	cur := p.proto.Refs()
	if slices.Equal(cur, p.pgRefs) {
		return
	}
	w.gen++
	// Sort both sides and merge: equal references cancel pairwise, what is
	// left of the old side loses an edge, what is left of the new side gains
	// one. The structure sees the delta in reference order, never in map
	// order.
	old := append(w.oldRefs[:0], p.pgRefs...)
	nu := append(w.newRefs[:0], cur...)
	ref.Sort(old)
	ref.Sort(nu)
	w.oldRefs, w.newRefs = old, nu
	for len(old) > 0 || len(nu) > 0 {
		switch {
		case len(nu) == 0 || len(old) > 0 && ref.Less(old[0], nu[0]):
			w.edge(p, old[0], graph.Explicit, -1)
			old = old[1:]
		case len(old) == 0 || ref.Less(nu[0], old[0]):
			w.edge(p, nu[0], graph.Explicit, 1)
			nu = nu[1:]
		default:
			old, nu = old[1:], nu[1:]
		}
	}
	p.pgRefs = append(p.pgRefs[:0], cur...)
}

// unite resets w.uf to the weak components of PG over the live processes
// counted (all, or the staying ones alone): the edges of their synced stored
// references and queued messages, between two counted processes.
func (w *World) unite(stayingOnly bool) *graph.UnionFind {
	w.syncView()
	w.uf.Reset(len(w.procs))
	counted := func(p *process) bool {
		return p != nil && p.life != Gone && (!stayingOnly || p.mode == Staying)
	}
	for _, p := range w.procs {
		if !counted(p) {
			continue
		}
		for _, r := range p.pgRefs {
			if counted(w.lookup(r)) {
				w.uf.Union(p.id, r)
			}
		}
		for i := range p.ch {
			for _, ri := range p.ch[i].Refs {
				if counted(w.lookup(ri.Ref)) {
					w.uf.Union(p.id, ri.Ref)
				}
			}
		}
	}
	return &w.uf
}
