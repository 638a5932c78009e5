package parallel

// Incremental relevant-degree tracking — the fast path of epoch validation.
//
// The SINGLE oracle's verdict for a process u is a pure function of u's
// degree in the relevant process graph: the number of distinct other live
// processes u shares an edge with, explicit (a stored reference, either
// direction) or implicit (a reference in a message queued to either side).
// The sequential engine answers that in O(1) from its incrementally
// maintained PG; the concurrent runtime used to rebuild a full sim.World
// clone every epoch just to ask it — an O(n+m) rebuild whose allocation and
// GC cost dominates the machine at n=100k (profiled at ~80% of total CPU).
//
// Instead, the runtime mirrors the sequential engine's bookkeeping: every
// LEAVING process carries a neighbor multiset (nbr: distinct neighbor pid →
// number of current edges with it), updated at the three places edges
// change —
//
//   - a message push adds one edge (receiver, r) per reference r it carries;
//     a delivery removes them (in-flight references are implicit PG edges);
//   - after every action the acting process's stored references are
//     compared with the copy taken at its last sync (syncRefs) and, when
//     they differ, diffed as multisets — only the acting process's own
//     explicit edges can change, so the diff is local;
//   - an exit commit deletes every pair involving the leaver (PG drops the
//     node), and additions are gated on both endpoints being alive, so a
//     stale stored reference to a gone process never re-counts.
//
// Pairs with both endpoints staying are not tracked — no oracle ever asks
// for a stayer's degree. len(nbr) then IS the leaver's relevant degree
// whenever nothing in the system is asleep (every FDP state; asleep
// processes require the sequential hibernation sweep, so the coordinator
// falls back to the frozen-world path if rt.asleep is ever nonzero).
//
// Synchronization: each pair update locks the two endpoints' degMu in
// ascending pid order (plain mutexes unrelated to the §12 ranked locks;
// they guard only the nbr maps and nest under nothing but each other).
// Mutators run under some shard's action read lock — or under the full
// pause — so they can never race the coordinator's pause-side reads,
// exit-commit cleanup, or reseeding.

import (
	"slices"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// degreeOracle is implemented by oracles whose verdict is a pure function
// of the SINGLE-style relevant degree (oracle.Single, oracle.Always). For
// these the coordinator validates exits and refreshes caches from the
// runtime's incremental counters, skipping the per-epoch world clone.
type degreeOracle interface {
	JudgeDegree(deg int) bool
}

// pairDelta applies d (+1 add, -1 remove) to the edge pair (a, r). Adds are
// gated like sim.World.isLiveTarget: unregistered, self, or gone endpoints
// contribute nothing. Removes clamp — a pair already erased by an exit
// commit (or never counted because an endpoint was gone) is a no-op, which
// is exactly the sequential engine's "removals no-op after RemoveNode".
func (rt *Runtime) pairDelta(a *proc, r ref.Ref, d int32) {
	b := rt.procs[r]
	if b == nil || b == a {
		return
	}
	if a.nbr == nil && b.nbr == nil {
		return // stayer-stayer pair: untracked
	}
	if d > 0 && (a.life.Load() == 2 || b.life.Load() == 2) {
		return
	}
	lo, hi := a, b
	if lo.pid > hi.pid {
		lo, hi = hi, lo
	}
	lo.degMu.Lock()
	hi.degMu.Lock()
	if a.nbr != nil {
		bumpNbr(a.nbr, b.pid, d)
	}
	if b.nbr != nil {
		bumpNbr(b.nbr, a.pid, d)
	}
	hi.degMu.Unlock()
	lo.degMu.Unlock()
}

func bumpNbr(m map[uint32]int32, v uint32, d int32) {
	c := m[v] + d
	if c <= 0 {
		delete(m, v)
	} else {
		m[v] = c
	}
}

// addMsgPairs counts the implicit edges of msg, about to be queued to p.
// Called before the message becomes poppable, so a racing delivery can
// never remove a pair before it was added.
func (rt *Runtime) addMsgPairs(p *proc, msg *sim.Message) {
	for _, ri := range msg.Refs {
		rt.pairDelta(p, ri.Ref, 1)
	}
}

// removeMsgPairs drops the implicit edges of msg: either it was just
// delivered (the references move into the action's explicit diff), or the
// push that counted it was refused by a closed mailbox and is being undone.
func (rt *Runtime) removeMsgPairs(p *proc, msg *sim.Message) {
	for _, ri := range msg.Refs {
		rt.pairDelta(p, ri.Ref, -1)
	}
}

// syncRefs folds the acting process's explicit-edge changes into the ledger
// after an action, the way sim.World.pgSyncRefs does: p.synced is the copy of
// proto.Refs() taken at the last sync (by reseedDegrees at Start and after
// every Mutate, here since). Protocols enumerate Refs deterministically, so
// an action that stored nothing yields an equal slice and costs one Refs
// call and one scan; otherwise the two multisets are sorted and merged, and
// only the acting process's own pairs move. sh is the shard whose worker
// runs the action; its scratch buffer holds the sorted copy of the new refs.
func (p *proc) syncRefs(sh *shard) {
	cur := p.proto.Refs()
	if slices.Equal(cur, p.synced) {
		return
	}
	was := p.synced
	now := append(sh.refScratch[:0], cur...)
	sh.refScratch = now
	ref.Sort(was)
	ref.Sort(now)
	i, j := 0, 0
	for i < len(was) || j < len(now) {
		switch {
		case j >= len(now) || (i < len(was) && ref.Less(was[i], now[j])):
			p.rt.pairDelta(p, was[i], -1)
			i++
		case i >= len(was) || ref.Less(now[j], was[i]):
			p.rt.pairDelta(p, now[j], 1)
			j++
		default:
			i++
			j++
		}
	}
	p.synced = append(was[:0], cur...)
}

// dropPairsOf erases every pair involving the exiting p, mirroring the
// sequential PG's RemoveNode: the neighbors' counts drop immediately, and
// stale references to p left behind in stores or in flight are inert (adds
// are life-gated, removes clamp). Caller holds the world paused.
func (rt *Runtime) dropPairsOf(p *proc) {
	for v := range p.nbr {
		if q := rt.byPid[v]; q.nbr != nil {
			delete(q.nbr, p.pid)
		}
	}
	p.nbr = nil
}

// reseedDegrees rebuilds every live leaver's neighbor multiset from scratch
// and re-takes every live process's synced copy of its stored references —
// the counter analogue of sim.World.InvalidatePG. Called at Start (the
// initial state: pre-seeded stores and injected in-flight messages) and at
// the end of every Mutate, whose callback may have rewritten protocol
// reference state without running any action. Caller holds the world
// paused (or the workers do not exist yet).
func (rt *Runtime) reseedDegrees() {
	if !rt.trackDeg {
		return
	}
	for _, p := range rt.leavers {
		if p.life.Load() != 2 {
			if p.nbr == nil {
				p.nbr = make(map[uint32]int32, 8)
			} else {
				clear(p.nbr)
			}
		}
	}
	for _, p := range rt.byPid {
		if p.life.Load() == 2 {
			continue
		}
		p.synced = append(p.synced[:0], p.proto.Refs()...)
		for _, r := range p.synced {
			rt.pairDelta(p, r, 1)
		}
		for i := range p.mb.queue[p.mb.head:] {
			m := &p.mb.queue[p.mb.head+i]
			rt.addMsgPairs(p, m)
		}
	}
}

// epochFast settles the pending exit batch and refreshes the leavers'
// cached oracle answers from the incremental degree counters — no world
// clone, no oracle evaluation on a snapshot. A leaver whose answer turns
// true goes on its shard's ready list (markReady), so its next timeout — the
// one that requests the exit — does not wait for the round-robin scan. Each commit erases its pairs
// before the next request is judged, so the batch sees post-commit degrees
// exactly as the frozen path's MarkGone fold-in provides. JudgeDegree is a
// pure function of an int, so the oracleMu serialization of stateful
// Evaluate calls is not needed here; the full pause already excludes every
// mutator. Caller holds the world paused.
func (rt *Runtime) epochFast(jd degreeOracle) {
	for _, p := range rt.takePendingExits() {
		ok := jd.JudgeDegree(len(p.nbr))
		if rt.oracleHook != nil {
			rt.oracleHook(p.id, ok)
		}
		if ok {
			p.exitPending.Store(false)
			rt.commitExit(p)
		} else {
			p.oracleOK.Store(false) // the cache was stale; stop re-requesting
			rt.exitDenied.Add(1)
			p.exitPending.Store(false)
			rt.reschedule(p)
		}
	}
	for _, p := range rt.leavers {
		if p.life.Load() == 2 {
			continue
		}
		if ok := jd.JudgeDegree(len(p.nbr)); ok != p.oracleOK.Load() {
			p.oracleOK.Store(ok)
			if ok {
				rt.markReady(p)
			}
		}
	}
}
