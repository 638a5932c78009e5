package sim

// The degree ledger: the world's one incrementally maintained structure
// (DESIGN.md §7). One graph.Row per leaving process, neighbour → number of
// edges joining the pair, explicit or implicit, either direction. A pair is
// counted only if an endpoint is leaving, and only in a leaving side's row. A
// live leaver's row length is its PG degree: RelevantDegree and NIDEC answer
// a leaver from its row, and the union-find below answers the component
// checks from the synced references. Nothing keeps the full PG; PG() builds
// it.
//
// The first query seeds the ledger. InvalidatePG and AddProcess drop it, and
// so does a staying process's exit (no row lists the leavers that count it);
// the next query reseeds. Code that mutates protocol variables outside an
// atomic action after a query (fault injectors, surgical tests) must call
// InvalidatePG. The mutation points apply O(Δ) deltas: message enqueue and
// removal (the implicit edges of the references it carries), the end of an
// atomic action (the acting process's stored refs re-diffed against the copy
// synced last, pgRefs — only the acting process can have changed), and exit.
// Only edges between two live, distinct processes exist: additions are
// filtered on both endpoints, removals no-op once an endpoint is gone. Every
// mutation that can change the hibernating set bumps w.gen, which stamps the
// one derived memo, Hibernating's.

import (
	"slices"

	"fdp/internal/graph"
	"fdp/internal/ref"
)

// ledgerRow is a leaver's row of the ledger: neighbour → edges joining the
// pair.
type ledgerRow = graph.Row[ref.Ref, int32]

// syncView makes the ledger and the synced copies current: it seeds the
// ledger if there is none and otherwise folds in the acting process's pending
// ref delta, so oracle calls made from inside Timeout/Deliver see the exact
// current state.
func (w *World) syncView() {
	if w.ledger == nil {
		w.seed()
	} else if w.current != nil {
		w.pgSyncRefs(w.current)
	}
}

// seed builds the ledger from scratch and records per process the refs
// snapshot future diffs are computed against.
func (w *World) seed() {
	w.gen++
	w.ledger = make([]ledgerRow, len(w.procs))
	for _, p := range w.procs {
		if p != nil && p.life != Gone {
			p.pgRefs = append(p.pgRefs[:0], p.proto.Refs()...)
		}
	}
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		for _, r := range p.pgRefs {
			w.edge(p, r, 1)
		}
		for i := range p.ch {
			for _, ri := range p.ch[i].Refs {
				w.edge(p, ri.Ref, 1)
			}
		}
	}
}

// edge applies d (+1 or -1) copies of an edge p->r to the ledger. A reference
// to ⊥, to no process of this world, to a gone process or to p itself is no
// edge.
func (w *World) edge(p *process, r ref.Ref, d int32) {
	q := w.lookup(r)
	if q == nil || q == p || q.life == Gone {
		return
	}
	if p.mode == Leaving {
		graph.Bump(&w.ledger[ref.Index(p.id)], r, d)
	}
	if q.mode == Leaving {
		graph.Bump(&w.ledger[ref.Index(r)], p.id, d)
	}
}

// InvalidatePG drops the ledger and the hibernation memo; the next query
// reseeds from scratch. Must be called by any code that mutates protocol
// variables (stored references) outside an atomic action after a query —
// fault injectors and tests that reach into protocol state directly.
func (w *World) InvalidatePG() {
	w.gen++
	w.ledger = nil
}

// pgEnqueue records the implicit edges of a message just placed in to's
// channel.
func (w *World) pgEnqueue(to *process, msg *Message) {
	w.gen++
	if w.ledger == nil {
		return
	}
	for _, ri := range msg.Refs {
		w.edge(to, ri.Ref, 1)
	}
}

// pgDequeue drops the implicit edges of a message just removed from from's
// channel.
func (w *World) pgDequeue(from *process, msg *Message) {
	w.gen++
	if w.ledger == nil {
		return
	}
	for _, ri := range msg.Refs {
		w.edge(from, ri.Ref, -1)
	}
}

// pgExit removes an exiting process with every edge it has: a leaver is
// erased from its leaving neighbours' rows and its own row emptied; a
// stayer's exit drops the ledger.
func (w *World) pgExit(p *process) {
	w.gen++
	p.pgRefs = nil
	switch {
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
// explicit multiplicity 2, exactly as PG() does.
func (w *World) pgSyncRefs(p *process) {
	if w.ledger == nil || p.life == Gone {
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
	// one. The ledger sees the delta in reference order, never in map order.
	old := append(w.oldRefs[:0], p.pgRefs...)
	nu := append(w.newRefs[:0], cur...)
	ref.Sort(old)
	ref.Sort(nu)
	w.oldRefs, w.newRefs = old, nu
	for len(old) > 0 || len(nu) > 0 {
		switch {
		case len(nu) == 0 || len(old) > 0 && ref.Less(old[0], nu[0]):
			w.edge(p, old[0], -1)
			old = old[1:]
		case len(old) == 0 || ref.Less(nu[0], old[0]):
			w.edge(p, nu[0], 1)
			nu = nu[1:]
		default:
			old, nu = old[1:], nu[1:]
		}
	}
	p.pgRefs = append(p.pgRefs[:0], cur...)
}

// unite resets w.uf to the weak components of PG restricted to the live
// processes counted: the edges of their synced stored references and queued
// messages, between two counted processes.
func (w *World) unite(counted func(*process) bool) *graph.UnionFind {
	w.syncView()
	w.uf.Reset(len(w.procs))
	in := func(p *process) bool { return p != nil && p.life != Gone && counted(p) }
	for _, p := range w.procs {
		if !in(p) {
			continue
		}
		for _, r := range p.pgRefs {
			if in(w.lookup(r)) {
				w.uf.Union(p.id, r)
			}
		}
		for i := range p.ch {
			for _, ri := range p.ch[i].Refs {
				if in(w.lookup(ri.Ref)) {
					w.uf.Union(p.id, ri.Ref)
				}
			}
		}
	}
	return &w.uf
}

// joined reports whether, in every initial component with two members or
// more, the members are live and in one class of the union-find over the
// members. Components may name processes this world does not hold (frozen
// runtime worlds omit the gone); those are no members.
func (w *World) joined(member func(*process) bool) bool {
	uf := w.unite(member)
	for _, comp := range w.initialComponents {
		var first ref.Ref
		members, ok := 0, true
		for _, r := range comp {
			p := w.lookup(r)
			if p == nil || !member(p) {
				continue
			}
			members++
			switch {
			case p.life == Gone:
				ok = false
			case first.IsNil():
				first = r
			case !uf.Same(first, r):
				ok = false
			}
		}
		if members >= 2 && !ok {
			return false
		}
	}
	return true
}
