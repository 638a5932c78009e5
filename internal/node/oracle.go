package node

import (
	"encoding/json"
	"slices"

	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/transport"
)

// distOracle is the distributed SINGLE oracle. The sequential Single grants
// u an exit iff u has PG edges — explicit (stored references) or implicit
// (references carried by queued messages) — with at most one other relevant
// process, evaluated atomically inside u's action. No node of a multi-node
// run sees PG whole, so the owner of each leaver u reconstructs the same
// predicate from consistent global snapshots:
//
//  1. Every node counts, per leaver u and per link, the u-relevant frames
//     (data and bounce frames addressed to u or carrying u's reference) it
//     has sent and received. A transport-synthesized bounce undoes its
//     frame's send count — the frame never arrived anywhere.
//  2. The owner runs numbered rounds: it broadcasts oq naming its live
//     owned leavers; every node answers oa with its counters and its local
//     neighbor contribution for each u: u's row in the node's ledger, which
//     counts the siblings' processes as hosted elsewhere (sim.World
//     HostElsewhere). The row holds the live owned processes storing u's
//     reference or holding queued messages that mention u, plus — on u's
//     own node — the processes u stores or whose references its queued
//     messages carry.
//  3. When all nodes have answered a round, u is granted iff the send/
//     receive matrix balances (sent[j→k] == recv[k←j] for every ordered
//     pair — no u-relevant frame was in flight anywhere) and the union of
//     neighbor contributions minus u has at most one member.
//  4. Any later u-relevant frame observed at the owner revokes the grant,
//     and a round during which the owner observed such a frame grants
//     nothing. Frames addressed to u necessarily pass through its owner,
//     so a message racing the exit revokes the grant before it can reach
//     u's channel.
//
// What this does NOT close — honestly — is third-party traffic: node j can
// ship a frame mentioning u to node k after answering the round that grants
// u. Such a frame cannot reach u's channel without revoking the grant
// first; its effect is a reference to (by then gone) u held elsewhere,
// which is exactly the post-exit interleaving the sequential model already
// permits, handled by the undeliverable/bounce recovery path. See
// DESIGN.md §15 for the argument.
//
// All state is touched only on the node's pump goroutine; Evaluate reads a
// plain field because the engine runs on that same goroutine.
type distOracle struct {
	n *Node

	// leavers is the per-leaver state by ref.Index (the scenario's processes
	// are indexed densely from 0), nil at every index that is no leaver of
	// the run. It is sized once: nothing a peer names can grow it.
	leavers []*leaverState

	// Round state (owner side).
	round   uint64
	roundUs []int
	// answers[k] is node k's per-leaver answers, nil until k answered;
	// the whole slice is nil while no round is open.
	answers [][]ctlAnswer
}

// leaverState is what a node keeps about one leaver u of the run.
type leaverState struct {
	// sent[k] and recv[k] count u-relevant frames exchanged with node k,
	// cumulative over the run.
	sent, recv []uint64
	// ver counts owner-observed u-relevant traffic; a grant requires an
	// undisturbed round (ver still roundVer, its value when the round
	// opened).
	ver, roundVer uint64
	// granted is u's current exit permission (owned leavers only).
	granted bool
}

func newDistOracle(n *Node) *distOracle {
	o := &distOracle{n: n, leavers: make([]*leaverState, len(n.global.Nodes))}
	for _, u := range n.global.LeavingNodes() {
		o.leavers[ref.Index(u)] = &leaverState{sent: make([]uint64, n.cfg.Nodes), recv: make([]uint64, n.cfg.Nodes)}
	}
	return o
}

// leaver returns the state of the leaver with index u, nil if u is no
// leaver of the run.
func (o *distOracle) leaver(u int) *leaverState {
	if uint(u) < uint(len(o.leavers)) {
		return o.leavers[u]
	}
	return nil
}

// Name implements sim.Oracle.
func (o *distOracle) Name() string { return "SINGLE" }

// Evaluate implements sim.Oracle: the current grant for u, revocable until
// the moment the exit action reads it.
func (o *distOracle) Evaluate(_ *sim.World, u ref.Ref) bool {
	st := o.leaver(ref.Index(u))
	return st != nil && st.granted
}

// relevant returns the state of each leaver a frame matters to, once: its
// target and every leaver whose reference it carries.
func (o *distOracle) relevant(to ref.Ref, msg sim.Message) []*leaverState {
	var sts []*leaverState
	if st := o.leaver(ref.Index(to)); st != nil {
		sts = append(sts, st)
	}
	for _, ri := range msg.Refs {
		if st := o.leaver(ref.Index(ri.Ref)); st != nil && !slices.Contains(sts, st) {
			sts = append(sts, st)
		}
	}
	return sts
}

// disturb notes u-relevant traffic: it revokes u's grant, and the open
// round grants u nothing.
func (st *leaverState) disturb() {
	st.ver++
	st.granted = false
}

// noteSent records a u-relevant frame handed to the transport for peer k.
func (o *distOracle) noteSent(k int, to ref.Ref, msg sim.Message) {
	for _, st := range o.relevant(to, msg) {
		st.sent[k]++
		st.disturb()
	}
}

// noteUnsent undoes noteSent after the transport reported the frame dead on
// the wire (local bounce): it never arrived, so it must not be waited for.
func (o *distOracle) noteUnsent(k int, to ref.Ref, msg sim.Message) {
	for _, st := range o.relevant(to, msg) {
		if st.sent[k] > 0 {
			st.sent[k]--
		}
		st.disturb()
	}
}

// noteRecv records a u-relevant frame arriving from peer k.
func (o *distOracle) noteRecv(k int, to ref.Ref, msg sim.Message) {
	for _, st := range o.relevant(to, msg) {
		st.recv[k]++
		st.disturb()
	}
}

// roundOpen reports whether a round is awaiting answers. The pump keeps an
// open round alive well past RoundEvery — restarting a round that merely
// needs another pump cycle to gather its answers would starve grants.
func (o *distOracle) roundOpen() bool { return o.answers != nil }

// ownsLive reports whether this node owns any not-yet-gone leaver (i.e.
// whether it has rounds to run).
func (o *distOracle) ownsLive() bool {
	for _, u := range o.n.ownedLeave {
		if o.n.world.LifeOf(u) != sim.Gone {
			return true
		}
	}
	return false
}

// startRound opens a new round for the owned live leavers: broadcast the
// query, record our own answer and the disturbance versions the grant will
// be conditioned on.
func (o *distOracle) startRound() {
	o.round++
	o.roundUs = o.roundUs[:0]
	for _, u := range o.n.ownedLeave {
		if o.n.world.LifeOf(u) != sim.Gone {
			st := o.leavers[ref.Index(u)]
			st.roundVer = st.ver
			o.roundUs = append(o.roundUs, ref.Index(u))
		}
	}
	if len(o.roundUs) == 0 {
		return
	}
	o.answers = make([][]ctlAnswer, o.n.cfg.Nodes)
	o.answers[o.n.cfg.ID] = o.answerFor(o.roundUs)
	q := marshalCtl(ctlMsg{K: "oq", R: o.round, N: o.n.cfg.ID, U: o.roundUs})
	o.n.tr.BroadcastControl(q)
	o.maybeGrant() // single-node runs complete immediately
}

// answerFor builds this node's answers for the queried leavers. A peer may
// name any index; only the run's leavers are answered. Each neighbour
// contribution is the leaver's ledger row here: the live owned processes it
// has process-graph edges with and the processes hosted elsewhere that it
// stores or is sent, by index in increasing order. A process hosted
// elsewhere counts even once gone from its host: its owner cannot be
// consulted atomically, and a stale inclusion only delays a grant, never
// unsafely issues one.
func (o *distOracle) answerFor(us []int) []ctlAnswer {
	out := make([]ctlAnswer, 0, len(us))
	for _, u := range us {
		st := o.leaver(u)
		if st == nil {
			continue
		}
		row := o.n.world.LeaverRow(ref.ByIndex(u))
		nb := make([]int, len(row))
		for i, e := range row {
			nb[i] = ref.Index(e.Key)
		}
		slices.Sort(nb)
		out = append(out, ctlAnswer{U: u, Sent: slices.Clone(st.sent), Recv: slices.Clone(st.recv), Nb: nb})
	}
	return out
}

// handleControl processes one control payload on the pump goroutine.
func (o *distOracle) handleControl(from int, payload []byte) {
	var m ctlMsg
	if err := json.Unmarshal(payload, &m); err != nil {
		return // garbled control traffic is dropped, rounds retry
	}
	switch m.K {
	case "oq":
		a := marshalCtl(ctlMsg{K: "oa", R: m.R, N: o.n.cfg.ID, A: o.answerFor(m.U)})
		o.n.tr.SendControl(transport.NodeID(from), a)
	case "oa":
		if m.R != o.round || o.answers == nil {
			return // stale round
		}
		if m.N < 0 || m.N >= o.n.cfg.Nodes {
			o.n.rejected.Inc() // maybeGrant indexes by answering node
			return
		}
		o.answers[m.N] = m.A
		o.maybeGrant()
	case "done":
		if m.N >= 0 && m.N < len(o.n.doneNodes) {
			o.n.doneNodes[m.N] = true
		}
	}
}

// maybeGrant evaluates the open round once every node has answered.
func (o *distOracle) maybeGrant() {
	if slices.ContainsFunc(o.answers, func(a []ctlAnswer) bool { return a == nil }) {
		return
	}
	byNode := make([]map[int]ctlAnswer, o.n.cfg.Nodes)
	for k, as := range o.answers {
		byNode[k] = make(map[int]ctlAnswer, len(as))
		for _, a := range as {
			byNode[k][a.U] = a
		}
	}
	for _, u := range o.roundUs {
		st := o.leavers[u]
		if o.n.world.LifeOf(ref.ByIndex(u)) == sim.Gone {
			continue
		}
		if st.ver != st.roundVer {
			continue // disturbed mid-round; the next round retries
		}
		ok := true
		nb := make(map[int]bool)
		for j := 0; j < o.n.cfg.Nodes && ok; j++ {
			aj, have := byNode[j][u]
			if !have || len(aj.Sent) != o.n.cfg.Nodes || len(aj.Recv) != o.n.cfg.Nodes {
				ok = false
				break
			}
			for _, i := range aj.Nb {
				nb[i] = true
			}
			for k := 0; k < o.n.cfg.Nodes; k++ {
				ak, have := byNode[k][u]
				if !have || len(ak.Recv) != o.n.cfg.Nodes {
					ok = false
					break
				}
				if aj.Sent[k] != ak.Recv[j] {
					ok = false // a u-relevant frame is in flight
					break
				}
			}
		}
		delete(nb, u)
		st.granted = ok && len(nb) <= 1
	}
	o.answers = nil // round closed
}

// ctlMsg is the node layer's control vocabulary, shipped as JSON inside
// control frames: oracle queries (oq), answers (oa) and done gossip.
type ctlMsg struct {
	K string      `json:"k"`
	R uint64      `json:"r,omitempty"`
	N int         `json:"n"`
	U []int       `json:"u,omitempty"`
	A []ctlAnswer `json:"a,omitempty"`
}

// ctlAnswer is one node's per-leaver round answer.
type ctlAnswer struct {
	U    int      `json:"u"`
	Sent []uint64 `json:"s"`
	Recv []uint64 `json:"r"`
	Nb   []int    `json:"nb,omitempty"`
}

func marshalCtl(m ctlMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic("node: control message marshal failed: " + err.Error())
	}
	return b
}
