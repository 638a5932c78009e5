package parallel

// The runtime's side of the degree ledger, graph.Ledger (DESIGN.md §7), the
// one both engines keep — and, for an oracle whose verdict is a function of
// the degree (SINGLE), the whole of exit judgement: a leaver's answer is its
// row's length, judged where the row changes. The runtime never counts the
// rows from scratch itself: seal and every reseed copy them from a sealed
// sim.World (sealedWorld), whose seed alone fixes the pair order, and the
// updates below keep them current. What concurrency adds (DESIGN.md §12):
//
//   - Pair locks. Each pair update locks the two endpoints' degMu in
//     reference order; they guard only the endpoints' rows and nest under
//     nothing but each other. A process becomes gone under its own degMu and
//     every add re-checks both endpoints' life under the same locks, so an
//     add is either counted in the degree an exit is judged on or counts
//     nothing.
//   - The over-count invariant, "adds precede removes". A message's pairs
//     are added before it can be popped and removed after its handler ran,
//     and the acting process's store diff runs after the handler too. So
//     each row holds every pair of the state before, or after, each action
//     in progress: its length is at least the relevant degree in some
//     sequential order of the actions, and a grant on it is one the model
//     could have given (Lemma 2). A leaver retired by one worker stays in
//     its neighbours' rows until dropPairsOf erases it, so commits that
//     overlap only over-count each other. At a full pause with nothing
//     asleep a row is exact; asleep processes need the hibernation sweep,
//     so while rt.asleep is nonzero exits wait for the coordinator's frozen
//     world.
//   - The reply handoff. A delivered message with one reference v leaves
//     its receiver p owing the −1 on {p, v} (proc.owed). The action's first
//     add on that pair — the admission of a one-reference message whose pair
//     it is, or the first store of v the store diff finds — takes the debt
//     over: one count stands for the message before the action and for the
//     reply or store after it, and neither update is applied. A debt nobody
//     takes is paid at the end of the action; a refused admission takes
//     nothing. The count may not be removed before the action ends, so
//     nobody may pop the reply meanwhile: its own worker is busy with the
//     action, and an outbox is published only between two actions
//     (shard.post). The invariant holds as above, and every debt is settled
//     at every pause.
//   - Judgement where the row moves. Every Count or Forget that changes a
//     leaver's row length re-judges the leaver before its degMu is let go,
//     so oracleOK is always JudgeDegree of the row; an answer that turns
//     true puts the leaver on its shard's ready list. The leaver's own exit
//     is judged again, on the row, in the action that asks for it (retire).
//     JudgeDegree and the oracle hook run under oracleMu, one call at a
//     time, on whichever goroutine moved the row.

import (
	"fdp/internal/graph"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// degreeOracle is implemented by oracles whose verdict is a pure function
// of the SINGLE-style relevant degree (oracle.Single, oracle.Always). For
// these the runtime judges every leaver on its ledger row, where the row
// changes, and no world is cloned.
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

// pairBump applies d (+1 add, -1 remove) to the edge pair (a, b) and
// re-judges, under its degMu, every leaver whose row length changed; one
// whose answer turned true goes on its shard's ready list once the locks are
// let go. A pair of two stayers is skipped before locking, from the
// immutable modes. So is a pair with a gone endpoint — gone is final and the
// exit commit erases the pair (dropPairsOf) — and an add checks again under
// both locks, where a commit in progress cannot be missed (retire sets life
// under the same lock). Removes are no-ops on a pair the commit already
// erased, or that an add skipped, which is exactly the sequential ledger's
// "removals no-op once an endpoint is gone". Caller holds a shard's action
// read lock, or the world paused.
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
	var aReady, bReady bool
	lo.degMu.Lock()
	hi.degMu.Lock()
	if d < 0 || (a.life.Load() != 2 && b.life.Load() != 2) {
		aMoved, bMoved := rt.ledger.Count(a.id, b.id, d)
		if aMoved {
			_, aReady = rt.judge(a)
		}
		if bMoved {
			_, bReady = rt.judge(b)
		}
	}
	hi.degMu.Unlock()
	lo.degMu.Unlock()
	if aReady {
		rt.markReady(a)
	}
	if bReady {
		rt.markReady(b)
	}
}

// judge sets the leaver p's cached answer to JudgeDegree of its row, and
// reports that verdict and whether the answer turned true. Caller holds
// p.degMu, or the world paused.
func (rt *Runtime) judge(p *proc) (ok, turned bool) {
	rt.oracleMu.Lock()
	ok = rt.jd.JudgeDegree(rt.ledger.Degree(p.id))
	rt.oracleMu.Unlock()
	if was := p.oracleOK.Load(); ok != was {
		p.oracleOK.Store(ok)
		turned = ok
	}
	return ok, turned
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
// (graph.RefDiff) against before, the proto.Refs() handout the action took
// just before its handler ran: a handout is never written (sim.Protocol.Refs),
// so it is the store as the action found it, and no copy is kept between
// actions. A reference stored here for the first time came out of the
// message being delivered, whose implicit pair is still counted
// (deliverAction drops it afterwards) — or, if the delivery still owes that
// pair, takes the debt over. sh is the shard whose worker runs the action,
// and owns the sort buffers.
func (p *proc) syncRefs(sh *shard, before []ref.Ref) {
	added, gone := sh.diff.Resync(&before, p.proto.Refs())
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

// retire makes p gone — if judged, only if the degree oracle grants the row
// the ledger holds — in ONE critical section of p.degMu:
// every add re-checks life under the same lock, so it is either part of the
// judged degree or finds p gone. A grant also suspends p for good
// (exitPending), so whoever checks whether p may act finds it suspended and
// gone from here on. It returns the pairs p's row held, for finishExit to
// erase from the other side. A process that is gone already is refused,
// whatever its empty row would be judged: nobody exits twice. Callers: the
// worker running p's action (finishAction), or commitExit.
func (rt *Runtime) retire(p *proc, judged bool) (pairs []graph.Pair, ok bool) {
	p.degMu.Lock()
	defer p.degMu.Unlock()
	was := p.life.Load()
	if was == 2 {
		return nil, false
	}
	if judged {
		if ok, _ := rt.judge(p); !ok {
			return nil, false
		}
	}
	p.life.Store(2)
	p.exitPending.Store(true)
	if was == 0 {
		p.sh.awake.Add(-1)
	} else {
		rt.asleep.Add(-1)
	}
	if rt.jd != nil {
		pairs = rt.ledger.Retire(p.id)
	}
	return pairs, true
}

// verdict hands an exit verdict to the oracle hook, under oracleMu.
func (rt *Runtime) verdict(u ref.Ref, ok bool) {
	if rt.oracleHook != nil {
		rt.oracleMu.Lock()
		rt.oracleHook(u, ok)
		rt.oracleMu.Unlock()
	}
}

// dropPairsOf erases the retired p from every leaving neighbor's row, one
// degMu at a time, and re-judges each neighbour there: the sequential
// ledger's Exit, split at the locks. Until a neighbor's turn comes it
// over-counts by the gone p, which only delays its own grant; stale
// references to p left behind in stores or in flight are inert (adds are
// life-gated, removes of an erased pair no-op).
func (rt *Runtime) dropPairsOf(p *proc, pairs []graph.Pair) {
	for _, e := range pairs {
		q := rt.lookup(e.Key)
		if q.mode != sim.Leaving {
			continue
		}
		var ready bool
		q.degMu.Lock()
		if rt.ledger.Forget(q.id, p.id) {
			_, ready = rt.judge(q)
		}
		q.degMu.Unlock()
		if ready {
			rt.markReady(q)
		}
	}
}

// judgeAll judges every live leaver on its freshly counted row and puts the
// ones whose answer turned true on their shards' ready lists. It walks the
// leavers alone (rt.leavers). Same caller contract.
func (rt *Runtime) judgeAll() {
	for _, i := range rt.leavers {
		p := rt.procs[i]
		if p.life.Load() == 2 {
			continue
		}
		if _, turned := rt.judge(p); turned {
			rt.markReady(p)
		}
	}
}

// reseedDegrees rebuilds the ledger from scratch — the counter analogue of
// sim.World.InvalidatePG, due at the end of every Mutate, whose callback may
// have rewritten protocol reference state or injected messages without
// running any action, and after a stayer's exit, which leaves it in its
// leaver neighbours' rows: it takes the rows of the runtime frozen and
// sealed (sealedWorld) and judges every leaver again. Caller holds the
// world paused.
func (rt *Runtime) reseedDegrees() {
	led, _, _ := rt.sealedWorld()
	rt.ledger.CopyOf(led, len(rt.procs))
	rt.judgeAll()
}
