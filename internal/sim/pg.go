package sim

// The world drives the degree ledger, graph.Ledger, its one incrementally
// maintained structure (DESIGN.md §7): RelevantDegree and NIDEC answer a
// leaver from its row, the union-find below answers the component checks
// from the stores and channels, and PG() builds the full graph on demand.
//
// The first query seeds the ledger. InvalidatePG and AddProcess drop it, and
// so does a staying process's exit (no row lists the leavers that count it);
// the next query reseeds. Code that mutates protocol variables outside an
// atomic action after a query (fault injectors, surgical tests) must call
// InvalidatePG. Message enqueue and removal, the end of an atomic action
// (only the acting process's stored refs can have changed) and exit apply
// O(Δ) deltas, through edge, which counts only edges between two live,
// distinct processes, a process hosted elsewhere (HostElsewhere) counting as
// live. An action's delta is the diff of the Refs slice the protocol hands
// out after it against the one handed out at the last sync (p.pgRefs):
// handouts are never written (Protocol.Refs), so the base is kept as handed
// out, never copied. Once the last leaver has exited the ledger is dormant:
// no pair can count, so nothing is fed to it and the diff bases go stale
// until a reseed retakes them. Every mutation that can change the
// hibernating set bumps w.gen, which stamps the one derived memo,
// Hibernating's; a dormant end of action bumps it unconditionally, having no
// diff to tell.

import (
	"slices"

	"fdp/internal/graph"
	"fdp/internal/ref"
)

// syncView makes the ledger and the diff bases current: it seeds the
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
// future diffs are computed against: the slice proto.Refs() hands out, which
// is never written (Protocol.Refs), so it is kept as it is, not copied.
func (w *World) seed() {
	w.gen++
	w.seeded = w.gen
	w.ledger = new(graph.Ledger)
	w.ledger.Reset(max(len(w.procs), len(w.elsewhere)))
	for _, p := range w.procs {
		if p != nil && p.life != Gone {
			p.pgRefs = p.proto.Refs()
			if p.mode == Leaving {
				w.ledger.Leave(p.id)
			}
		}
	}
	for i, m := range w.elsewhere {
		if m == Leaving {
			w.ledger.Leave(ref.ByIndex(i))
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
// to ⊥, to no process of this world or hosted elsewhere, to a gone process or
// to p itself is no edge. A pair of two stayers has no row to count in; it is
// skipped before the call, as the runtime's pairBump skips it before it locks.
func (w *World) edge(p *process, r ref.Ref, d int32) {
	q := w.lookup(r)
	if q == nil {
		if m := w.hostedElsewhere(r); m != Absent && (p.mode == Leaving || m == Leaving) {
			w.ledger.Count(p.id, r, d)
		}
		return
	}
	if q != p && q.life != Gone && (p.mode == Leaving || q.mode == Leaving) {
		w.ledger.Count(p.id, r, d)
	}
}

// LeaverRow returns the leaver u's ledger row, synced first: a pair per
// neighbour, live here or hosted elsewhere, joined to u by an edge. u must be
// a process of this world or hosted elsewhere; the row is empty if u stays
// or is gone. Do not keep it past a step.
func (w *World) LeaverRow(u ref.Ref) []graph.Pair {
	w.syncView()
	return w.ledger.Pairs(u)
}

// InvalidatePG drops the ledger and the hibernation memo; the next query
// reseeds from scratch. Must be called by any code that mutates protocol
// variables (stored references) outside an atomic action after a query —
// fault injectors and tests that reach into protocol state directly.
func (w *World) InvalidatePG() {
	w.gen++
	w.ledger = nil
}

// pgMessage applies d to the implicit edges of a message just placed in p's
// channel (+1) or just removed from it (-1), unless the ledger is dormant.
func (w *World) pgMessage(p *process, msg *Message, d int32) {
	w.gen++
	if w.ledger == nil || w.ledger.Leavers() == 0 {
		return
	}
	for _, ri := range msg.Refs {
		w.edge(p, ri.Ref, d)
	}
}

// pgExit removes an exiting process with every edge it has; a stayer's exit
// drops the ledger.
func (w *World) pgExit(p *process) {
	w.gen++
	p.pgRefs = nil
	switch {
	case w.ledger == nil:
	case p.mode == Leaving:
		w.ledger.Exit(p.id)
	default:
		w.ledger = nil
	}
}

// pgSyncRefs folds p's explicit-edge delta since the last sync into the
// ledger. Only the acting process can have changed, so this is O(|refs(p)|)
// per action. The diff is multiset-aware: a protocol storing the same
// reference twice contributes explicit multiplicity 2, exactly as PG() does.
// The base is p.pgRefs, the handout the last sync took; the current
// handout becomes the next. A dormant ledger is not synced: p.pgRefs stays
// stale until a reseed.
func (w *World) pgSyncRefs(p *process) {
	if w.ledger == nil || p.life == Gone {
		return
	}
	if w.ledger.Leavers() == 0 {
		w.gen++
		return
	}
	added, gone := w.diff.Resync(&p.pgRefs, p.proto.Refs())
	for _, r := range added {
		w.edge(p, r, 1)
	}
	for _, r := range gone {
		w.edge(p, r, -1)
	}
	if len(added)+len(gone) > 0 {
		w.gen++
	}
}

// unite resets w.uf to the weak components of PG restricted to the live
// processes counted, the members: the edges of their stored references and
// queued messages, between two members. It unions every store before any
// channel and stops once the members form one class, so only questions about
// members have their answer; every caller asks about nothing else.
func (w *World) unite(counted func(*process) bool) *graph.UnionFind {
	w.uf.Reset(len(w.procs))
	w.member = slices.Grow(w.member[:0], len(w.procs))[:len(w.procs)]
	classes := 0
	for i, p := range w.procs {
		w.member[i] = p != nil && p.life != Gone && counted(p)
		if w.member[i] {
			classes++
		}
	}
	// join unions the edge p->r if r is a member and reports whether the
	// members are down to one class.
	join := func(p *process, r ref.Ref) bool {
		i := ref.Index(r)
		if uint(i) < uint(len(w.member)) && w.member[i] && w.uf.Union(p.id, r) {
			classes--
		}
		return classes <= 1
	}
	for i, p := range w.procs {
		if w.member[i] {
			for _, r := range p.proto.Refs() {
				if join(p, r) {
					return &w.uf
				}
			}
		}
	}
	for i, p := range w.procs {
		if w.member[i] {
			for j := range p.ch {
				for _, ri := range p.ch[j].Refs {
					if join(p, ri.Ref) {
						return &w.uf
					}
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
