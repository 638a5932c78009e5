package sim

// Incremental process-graph maintenance. The from-scratch construction of
// PG costs O(processes + stored refs + in-flight messages); rebuilding it on
// every oracle call made the oracle *the* hot path of FDP runs. Instead the
// world keeps one persistent graph.Graph and applies O(Δ) deltas at every
// mutation point:
//
//   - message enqueue (Enqueue / Context.Send): one implicit edge per live
//     reference the message carries;
//   - message removal in Execute: the same implicit edges dropped;
//   - end of an atomic action: the acting process's stored refs re-diffed
//     against the copy cached at the previous sync — sound because an
//     atomic action can only mutate the acting process's variables;
//   - exit: the node removed with all incident edges.
//
// Edges whose target is gone are filtered at *addition* time (matching the
// isLiveTarget filter of the from-scratch build); removals are applied
// unconditionally and no-op when RemoveNode already dropped the edge.
//
// The graph is seeded lazily by the first query, so worlds that never ask
// for PG pay nothing, and scenario construction (which mutates protocol
// state freely before the first query) needs no hooks. Code that mutates
// protocol variables outside an atomic action after the graph was seeded
// (fault injectors, surgical tests) must call InvalidatePG.
//
// Derived views (Hibernating, Relevant, RelevantPG) are cached and stamped
// with w.gen, which is bumped on every mutation that can change them, so
// repeated reads between mutations are free. TestIncrementalPGMatchesRebuild
// asserts step-for-step equality with RebuildPG under randomized schedules.

import (
	"slices"

	"fdp/internal/graph"
	"fdp/internal/ref"
)

// pgView returns the incrementally maintained process graph, seeding it on
// first use. Mid-action it first folds in any not-yet-synced ref changes of
// the acting process, so oracle calls made from inside Timeout/Deliver see
// the exact current state.
func (w *World) pgView() *graph.Graph {
	if w.pg == nil {
		w.seedPG()
	} else if w.current != nil {
		w.pgSyncRefs(w.current)
	}
	return w.pg
}

// seedPG builds the graph from scratch and records, per process, the refs
// snapshot future diffs are computed against.
func (w *World) seedPG() {
	w.gen++
	w.pg = graph.New()
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		w.pg.AddNode(p.id)
		rs := p.proto.Refs()
		p.pgRefs = append(p.pgRefs[:0], rs...)
	}
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		for _, r := range p.pgRefs {
			if w.isLiveTarget(r) {
				w.pg.AddEdge(p.id, r, graph.Explicit)
			}
		}
		for i := range p.ch {
			for _, ri := range p.ch[i].Refs {
				if w.isLiveTarget(ri.Ref) {
					w.pg.AddEdge(p.id, ri.Ref, graph.Implicit)
				}
			}
		}
	}
}

// InvalidatePG discards the incremental process graph and every derived
// cache; the next query reseeds from scratch. Must be called by any code
// that mutates protocol variables (stored references) outside an atomic
// action after the graph has been seeded — fault injectors and tests that
// reach into protocol state directly.
func (w *World) InvalidatePG() {
	w.gen++
	w.pg = nil
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
func (w *World) pgEnqueue(to ref.Ref, msg *Message) {
	w.gen++
	if w.pg == nil {
		return
	}
	for _, ri := range msg.Refs {
		if w.isLiveTarget(ri.Ref) {
			w.pg.AddEdge(to, ri.Ref, graph.Implicit)
		}
	}
}

// pgDequeue drops the implicit edges of a message just removed from from's
// channel. Edges to targets that exited since the enqueue were already
// dropped by RemoveNode; those removals no-op.
func (w *World) pgDequeue(from ref.Ref, msg *Message) {
	w.gen++
	if w.pg == nil {
		return
	}
	for _, ri := range msg.Refs {
		w.pg.RemoveEdge(from, ri.Ref, graph.Implicit)
	}
}

// pgExit removes an exiting process: the node disappears with every
// incident edge — its stored refs, its channel's implicit edges, and all
// edges other processes hold toward it.
func (w *World) pgExit(p *process) {
	w.gen++
	p.pgRefs = nil
	if w.pg == nil {
		return
	}
	w.pg.RemoveNode(p.id)
}

// pgSyncRefs re-diffs p's stored references against the snapshot taken at
// the last sync and applies the explicit-edge delta. Only the acting
// process can have changed, so this is O(|refs(p)|) per action. The diff is
// multiset-aware: a protocol storing the same reference twice contributes
// explicit multiplicity 2, exactly as the from-scratch build does.
func (w *World) pgSyncRefs(p *process) {
	if w.pg == nil || p.life == Gone {
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
	// one. The graph sees the delta in reference order, never in map order.
	old := append(w.oldRefs[:0], p.pgRefs...)
	nu := append(w.newRefs[:0], cur...)
	ref.Sort(old)
	ref.Sort(nu)
	w.oldRefs, w.newRefs = old, nu
	for len(old) > 0 || len(nu) > 0 {
		switch {
		case len(nu) == 0 || len(old) > 0 && ref.Less(old[0], nu[0]):
			w.pg.RemoveEdge(p.id, old[0], graph.Explicit)
			old = old[1:]
		case len(old) == 0 || ref.Less(nu[0], old[0]):
			if w.isLiveTarget(nu[0]) {
				w.pg.AddEdge(p.id, nu[0], graph.Explicit)
			}
			nu = nu[1:]
		default:
			old, nu = old[1:], nu[1:]
		}
	}
	p.pgRefs = append(p.pgRefs[:0], cur...)
}
