package parallel

// The runtime's side of the degree ledger, graph.Ledger (DESIGN.md §7), the
// one both engines keep — the fast path of epoch validation: SINGLE judges a
// leaver on its row's length. What concurrency adds (DESIGN.md §12):
//
//   - Pair locks. Each pair update locks the two endpoints' degMu in
//     reference order; they guard only the endpoints' rows and nest under
//     nothing but each other. A process becomes gone under its own degMu and
//     every add re-checks both endpoints' life under the same locks, so an
//     add is either counted in the degree an exit is judged on or counts
//     nothing.
//   - The over-count invariant, "adds precede removes". A message's pairs
//     are added before it can be popped and removed after its handler ran,
//     and the acting process's resync runs after the handler too. So each
//     row holds every pair of the state before, or after, each action in
//     progress: its length is at least the relevant degree in some
//     sequential order of the actions, and a grant on it is one the model
//     could have given (Lemma 2). At a full pause with nothing asleep it is
//     exact; asleep processes need the hibernation sweep, so the coordinator
//     judges on a frozen world while rt.asleep is nonzero.
//   - The reply handoff. A delivered message with one reference v leaves
//     its receiver p owing the −1 on {p, v} (proc.owed). The action's first
//     add on that pair — the admission of a one-reference message whose pair
//     it is, or the first store of v the resync finds — takes the debt over:
//     one count stands for the message before the action and for the reply
//     or store after it, and neither update is applied. A debt nobody takes
//     is paid at the end of the action; a refused admission takes nothing.
//     The count may not be removed before the action ends, so nobody may
//     pop the reply meanwhile: its own worker is busy with the action, and
//     an outbox is published only between two actions (shard.post). The
//     invariant holds as above, and every debt is settled at every pause.
//   - The dirty queue. A leaver whose row length changed is queued once for
//     the coordinator's next epoch, which re-judges only those.

import (
	"fdp/internal/graph"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// degreeOracle is implemented by oracles whose verdict is a pure function
// of the SINGLE-style relevant degree (oracle.Single, oracle.Always). For
// these the coordinator validates exits and refreshes caches from the
// runtime's ledger, skipping the per-epoch world clone.
type degreeOracle interface {
	JudgeDegree(deg int) bool
}

// pairDelta applies d (+1 add, -1 remove) to the edge pair (a, r); see
// pairBump. Unregistered and self references contribute nothing, like
// sim.World.edge.
func (rt *Runtime) pairDelta(a *proc, r ref.Ref, d int32) {
	if b := rt.lookup(r); b != nil && b != a {
		rt.pairBump(a, b, d)
	}
}

// pairBump applies d (+1 add, -1 remove) to the edge pair (a, b) and queues
// every leaver whose row length changed for re-judgement. A pair of two
// stayers is skipped before locking, from the immutable modes. So is a pair
// with a gone endpoint — gone is final and the exit commit erases the pair
// (dropPairsOf) — and an add checks again under both locks, where a commit
// in progress cannot be missed (retire sets life under the same lock).
// Removes are no-ops on a pair the commit already erased, or that an add
// skipped, which is exactly the sequential ledger's "removals no-op once an
// endpoint is gone".
func (rt *Runtime) pairBump(a, b *proc, d int32) {
	if a.mode != sim.Leaving && b.mode != sim.Leaving {
		return
	}
	if a.life.Load() == 2 || b.life.Load() == 2 {
		return
	}
	lo, hi := a, b
	if ref.Less(hi.id, lo.id) {
		lo, hi = hi, lo
	}
	var aMoved, bMoved bool
	lo.degMu.Lock()
	hi.degMu.Lock()
	if d < 0 || (a.life.Load() != 2 && b.life.Load() != 2) {
		aMoved, bMoved = rt.ledger.Count(a.id, b.id, d)
	}
	hi.degMu.Unlock()
	lo.degMu.Unlock()
	if aMoved {
		rt.markDirty(a)
	}
	if bMoved {
		rt.markDirty(b)
	}
}

// markDirty queues p, whose degree just changed, for the coordinator's next
// epoch; proc.dirty keeps it on the queue at most once. Called with no degMu
// held.
func (rt *Runtime) markDirty(p *proc) {
	if p.dirty.CompareAndSwap(false, true) {
		rt.dirtyMu.Lock()
		rt.dirty = append(rt.dirty, p)
		rt.dirtyMu.Unlock()
	}
}

// takeDirty claims the queued leavers.
func (rt *Runtime) takeDirty() []*proc {
	rt.dirtyMu.Lock()
	defer rt.dirtyMu.Unlock()
	batch := rt.dirty
	rt.dirty = nil
	return batch
}

// msgPairs applies d to the implicit edges of a message to p, one per
// reference it carries: +1 before the message is admitted — before it can be
// popped, so a racing delivery never removes a pair before it was added — and
// -1 once its delivery is over (the handler ran, and what it stored or sent
// on is counted) or its admission was refused. A delivery of one reference
// settles through the debt instead (owe, payDebt).
func (rt *Runtime) msgPairs(p *proc, refs []sim.RefInfo, d int32) {
	for _, ri := range refs {
		rt.pairDelta(p, ri.Ref, d)
	}
}

// owe opens the debt of a delivery to p whose message carries the one
// reference v: the −1 on {p, v} waits for a taker (owes, syncRefs) or for
// payDebt. A pair the ledger does not count — no process, p itself, two
// stayers — owes nothing.
func (p *proc) owe(v ref.Ref) {
	if q := p.rt.lookup(v); q != nil && q != p && (p.mode == sim.Leaving || q.mode == sim.Leaving) {
		p.owed = q
	}
}

// owes reports whether msg, sent by p to target, takes p's debt over: it
// carries one reference, and its pair is the one p owes.
func (p *proc) owes(target *proc, msg *sim.Message) bool {
	q := p.owed
	if q == nil || len(msg.Refs) != 1 {
		return false
	}
	r := msg.Refs[0].Ref
	return target == q && r == p.id || target == p && r == q.id
}

// payDebt removes the delivered message's pair if nothing took it over.
func (p *proc) payDebt() {
	if q := p.owed; q != nil {
		p.owed = nil
		p.rt.pairBump(p, q, -1)
	}
}

// syncRefs folds the acting process's explicit-edge changes into the ledger
// after an action, with the end-of-action diff the sequential engine runs
// (graph.RefDiff): p.synced is the copy of proto.Refs() taken at the last
// sync (by resetLedger at Start and after every Mutate, here since). A
// reference stored here for the first time came out of the message being
// delivered, whose implicit pair is still counted (deliverAction drops it
// afterwards) — or, if the delivery still owes that pair, takes the debt
// over. sh is the shard whose worker runs the action, and owns the sort
// buffers.
func (p *proc) syncRefs(sh *shard) {
	added, gone := sh.diff.Resync(&p.synced, p.proto.Refs())
	for _, r := range added {
		if q := p.owed; q != nil && r == q.id {
			p.owed = nil
			sh.handoffs++
			continue
		}
		p.rt.pairDelta(p, r, 1)
	}
	for _, r := range gone {
		p.rt.pairDelta(p, r, -1)
	}
}

// retire makes p gone — unconditionally if jd is nil, otherwise only if jd
// grants the degree the ledger holds — in ONE critical section of p.degMu:
// every add re-checks life under the same lock, so it is either part of the
// judged degree or finds p gone. It returns the pairs p's row held, for
// finishExit to erase from the other side. A process that is gone already is
// refused, whatever jd says of its empty row: nobody exits twice. Callers:
// the coordinator's fast-path epoch (no pause: p is suspended, nobody else
// writes its life), or commitExit.
func (rt *Runtime) retire(p *proc, jd degreeOracle) (pairs []graph.Pair, ok bool) {
	p.degMu.Lock()
	defer p.degMu.Unlock()
	was := p.life.Load()
	if was == 2 || (jd != nil && !jd.JudgeDegree(rt.ledger.Degree(p.id))) {
		return nil, false
	}
	p.life.Store(2)
	if was == 0 {
		rt.shards[p.shard.Load()].awake.Add(-1)
	} else {
		rt.asleep.Add(-1)
	}
	if rt.trackDeg {
		pairs = rt.ledger.Retire(p.id)
	}
	return pairs, true
}

// dropPairsOf erases the retired p from every leaving neighbor's row, one
// degMu at a time: the sequential ledger's Exit, split at the locks. Until a
// neighbor's turn comes it over-counts by the gone p, which only delays its
// own grant; stale references to p left behind in stores or in flight are
// inert (adds are life-gated, removes of an erased pair no-op).
func (rt *Runtime) dropPairsOf(p *proc, pairs []graph.Pair) {
	for _, e := range pairs {
		q := rt.lookup(e.Key)
		if q.mode != sim.Leaving {
			continue
		}
		q.degMu.Lock()
		had := rt.ledger.Forget(q.id, p.id)
		q.degMu.Unlock()
		if had {
			rt.markDirty(q)
		}
	}
}

// forEachEdge calls edge(p, q) once for every edge of the current process
// graph, from the end that holds the reference: every reference a live
// process p stores or has queued in its mailbox, to a live process q other
// than p — the same edges a frozen world's PG holds (references to
// unregistered, gone or the holder's own process are none). Caller holds the
// world paused (or the workers do not exist yet).
func (rt *Runtime) forEachEdge(edge func(p, q *proc)) {
	to := func(p *proc, r ref.Ref) {
		if q := rt.lookup(r); q != nil && q != p && q.life.Load() != 2 {
			edge(p, q)
		}
	}
	for _, p := range rt.procs {
		if p == nil || p.life.Load() == 2 {
			continue
		}
		for _, r := range p.proto.Refs() {
			to(p, r)
		}
		for _, m := range p.mb.queue[p.mb.head:] {
			for _, ri := range m.Refs {
				to(p, ri.Ref)
			}
		}
	}
}

// resetLedger empties the ledger, gives every live leaver a row and queues
// it for judgement, and re-takes every live process's synced copy of its
// stored references: the ledger then holds no pair and expects one pairBump
// per edge forEachEdge walks. Same caller contract.
func (rt *Runtime) resetLedger() {
	rt.ledger.Reset(len(rt.procs))
	for _, p := range rt.procs {
		if p == nil || p.life.Load() == 2 {
			continue
		}
		p.synced = append(p.synced[:0], p.proto.Refs()...)
		if p.mode == sim.Leaving {
			rt.ledger.Leave(p.id)
			rt.markDirty(p)
		}
	}
}

// reseedDegrees rebuilds the ledger from scratch — the counter analogue of
// sim.World.InvalidatePG, due at the end of every Mutate, whose callback may
// have rewritten protocol reference state or injected messages without
// running any action (seal does the same in its own pass). Same caller
// contract.
func (rt *Runtime) reseedDegrees() {
	rt.resetLedger()
	rt.forEachEdge(func(p, q *proc) { rt.pairBump(p, q, 1) })
}

// components returns the weakly connected components of the current process
// graph — what freezeUnderPause().PG().WeaklyConnectedComponents() returns,
// members and components in the same (reference) order — without building
// the world. Same caller contract.
func (rt *Runtime) components() [][]ref.Ref {
	var uf graph.UnionFind
	uf.Reset(len(rt.procs))
	rt.forEachEdge(func(p, q *proc) { uf.Union(p.id, q.id) })
	return rt.partition(&uf)
}

// partition lists uf's classes of live processes, members and classes in
// reference order.
func (rt *Runtime) partition(uf *graph.UnionFind) [][]ref.Ref {
	var live []ref.Ref
	for _, p := range rt.procs {
		if p != nil && p.life.Load() != 2 {
			live = append(live, p.id)
		}
	}
	return uf.Partition(live)
}

// epochFast is the coordinator's round on the degree-judged path: it
// settles the pending exit batch and re-judges the leavers whose degree
// changed since the last round, all from the incremental ledger — no world
// clone, no shard lock, O(pending + changed) work while the workers run on.
// A suspended leaver's exit is judged and committed in one critical section
// of its degMu (retire), and its pairs are erased before the next request
// is judged, so the batch sees post-commit degrees exactly as the frozen
// path's MarkGone fold-in provides. A dirty leaver whose answer turns true
// goes on its shard's ready list (markReady), so its next timeout — the one
// that requests the exit — does not wait for the round-robin scan.
// JudgeDegree and the oracle hook run here, on the coordinator goroutine
// only; JudgeDegree is a pure function of an int, so the oracleMu
// serialization of stateful Evaluate calls is not needed. Caller holds
// freezeMu, which keeps Freeze, Mutate, Rebalance and validateExit out.
//
// The ledger keeps a row per leaver only. A request from any other process —
// a staying process whose protocol calls Exit, which the model does not
// forbid and the sequential engine commits — cannot be judged here: it is
// handed back for the caller to settle on a sealed snapshot (settleOn) once
// freezeMu is free.
func (rt *Runtime) epochFast(jd degreeOracle) (offLedger []*proc) {
	for _, p := range rt.takePendingExits() {
		if p.mode != sim.Leaving {
			offLedger = append(offLedger, p)
			continue
		}
		pairs, ok := rt.retire(p, jd)
		if rt.oracleHook != nil {
			rt.oracleHook(p.id, ok)
		}
		if ok {
			// exitPending stays set: a gone process is suspended for good,
			// so no worker's check can fall between the two writes.
			rt.finishExit(p, pairs)
		} else {
			p.oracleOK.Store(false) // the cache was stale; stop re-requesting
			rt.exitDenied.Add(1)
			p.exitPending.Store(false)
			rt.reschedule(p)
		}
	}
	for _, p := range rt.takeDirty() {
		// Off the queue before the degree is read: a change after the read
		// queues p again.
		p.dirty.Store(false)
		if p.life.Load() == 2 {
			continue
		}
		p.degMu.Lock()
		deg := rt.ledger.Degree(p.id)
		p.degMu.Unlock()
		if ok := jd.JudgeDegree(deg); ok != p.oracleOK.Load() {
			p.oracleOK.Store(ok)
			if ok {
				rt.markReady(p)
			}
		}
	}
	return offLedger
}
