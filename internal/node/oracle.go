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
//     neighbor contribution for each u (live owned processes storing u's
//     reference or holding queued messages that mention u, plus — on u's
//     own node — u's stored references and the references queued in u's
//     channel, minus processes known to be gone).
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
// plain map because the engine runs on that same goroutine.
type distOracle struct {
	n *Node

	// leaverIdx marks the global leaver indexes (relevance filter).
	leaverIdx map[int]bool
	// sent[u][k] and recv[u][k] count u-relevant frames exchanged with
	// node k, cumulative over the run.
	sent, recv map[int][]uint64
	// ver[u] counts owner-observed u-relevant traffic; a grant requires an
	// undisturbed round (ver unchanged since the round opened).
	ver map[int]uint64

	// granted holds current exit permissions for owned leavers.
	granted map[ref.Ref]bool

	// Round state (owner side).
	round    uint64
	roundUs  []int
	roundVer map[int]uint64
	// answers[k] is node k's per-leaver answers, nil until k answered;
	// the whole slice is nil while no round is open.
	answers [][]ctlAnswer
}

func newDistOracle(n *Node) *distOracle {
	o := &distOracle{n: n,
		leaverIdx: make(map[int]bool),
		sent:      make(map[int][]uint64),
		recv:      make(map[int][]uint64),
		ver:       make(map[int]uint64),
		granted:   make(map[ref.Ref]bool),
	}
	for _, u := range n.global.Leaving.Sorted() {
		o.leaverIdx[ref.Index(u)] = true
	}
	return o
}

// Name implements sim.Oracle.
func (o *distOracle) Name() string { return "SINGLE" }

// Evaluate implements sim.Oracle: the current grant for u, revocable until
// the moment the exit action reads it.
func (o *distOracle) Evaluate(_ *sim.World, u ref.Ref) bool { return o.granted[u] }

// relevant returns the leaver indexes a frame matters to: its target and
// every leaver whose reference it carries.
func (o *distOracle) relevant(to ref.Ref, msg sim.Message) []int {
	var us []int
	if i := ref.Index(to); o.leaverIdx[i] {
		us = append(us, i)
	}
	for _, ri := range msg.Refs {
		if i := ref.Index(ri.Ref); o.leaverIdx[i] {
			dup := false
			for _, x := range us {
				dup = dup || x == i
			}
			if !dup {
				us = append(us, i)
			}
		}
	}
	return us
}

func (o *distOracle) counters(m map[int][]uint64, u int) []uint64 {
	c := m[u]
	if c == nil {
		c = make([]uint64, o.n.cfg.Nodes)
		m[u] = c
	}
	return c
}

func (o *distOracle) disturb(u int) {
	o.ver[u]++
	if r := ref.ByIndex(u); o.n.ownedSet.Has(r) {
		delete(o.granted, r)
	}
}

// noteSent records a u-relevant frame handed to the transport for peer k.
func (o *distOracle) noteSent(k int, to ref.Ref, msg sim.Message) {
	for _, u := range o.relevant(to, msg) {
		o.counters(o.sent, u)[k]++
		o.disturb(u)
	}
}

// noteUnsent undoes noteSent after the transport reported the frame dead on
// the wire (local bounce): it never arrived, so it must not be waited for.
func (o *distOracle) noteUnsent(k int, to ref.Ref, msg sim.Message) {
	for _, u := range o.relevant(to, msg) {
		if c := o.counters(o.sent, u); c[k] > 0 {
			c[k]--
		}
		o.disturb(u)
	}
}

// noteRecv records a u-relevant frame arriving from peer k.
func (o *distOracle) noteRecv(k int, to ref.Ref, msg sim.Message) {
	for _, u := range o.relevant(to, msg) {
		o.counters(o.recv, u)[k]++
		o.disturb(u)
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
			o.roundUs = append(o.roundUs, ref.Index(u))
		}
	}
	if len(o.roundUs) == 0 {
		return
	}
	o.roundVer = make(map[int]uint64, len(o.roundUs))
	for _, u := range o.roundUs {
		o.roundVer[u] = o.ver[u]
	}
	o.answers = make([][]ctlAnswer, o.n.cfg.Nodes)
	o.answers[o.n.cfg.ID] = o.answerFor(o.roundUs)
	q := marshalCtl(ctlMsg{K: "oq", R: o.round, N: o.n.cfg.ID, U: o.roundUs})
	o.n.tr.BroadcastControl(q)
	o.maybeGrant() // single-node runs complete immediately
}

// answerFor builds this node's answers for the queried leavers.
func (o *distOracle) answerFor(us []int) []ctlAnswer {
	out := make([]ctlAnswer, 0, len(us))
	for _, u := range us {
		a := ctlAnswer{U: u,
			Sent: append([]uint64(nil), o.counters(o.sent, u)...),
			Recv: append([]uint64(nil), o.counters(o.recv, u)...),
			Nb:   o.contribution(u),
		}
		out = append(out, a)
	}
	return out
}

// contribution computes this node's slice of u's PG neighborhood: for each
// live owned process v, an explicit edge if v stores u's reference and an
// implicit one if a message queued at v mentions u; on u's own node also
// u's stored references and the references carried by u's queued messages.
// Processes known gone here are excluded; remote references are kept
// conservatively (their owners cannot be consulted atomically — a stale
// inclusion only delays a grant, never unsafely issues one).
func (o *distOracle) contribution(uIdx int) []int {
	u := ref.ByIndex(uIdx)
	var nb []int
	add := func(r ref.Ref) {
		i := ref.Index(r)
		if i == uIdx {
			return
		}
		if o.n.ownedSet.Has(r) && o.n.world.LifeOf(r) == sim.Gone {
			return
		}
		nb = append(nb, i)
	}
	for _, v := range o.n.owned {
		if o.n.world.LifeOf(v) == sim.Gone {
			continue
		}
		if v == u {
			for _, w := range o.n.world.ProtocolOf(u).Refs() {
				add(w)
			}
			for _, m := range o.n.world.ChannelSnapshot(u) {
				for _, ri := range m.Refs {
					add(ri.Ref)
				}
			}
			continue
		}
		stores := false
		for _, w := range o.n.world.ProtocolOf(v).Refs() {
			if w == u {
				stores = true
			}
		}
		if !stores {
		scan:
			for _, m := range o.n.world.ChannelSnapshot(v) {
				for _, ri := range m.Refs {
					if ri.Ref == u {
						stores = true
						break scan
					}
				}
			}
		}
		if stores {
			nb = append(nb, ref.Index(v))
		}
	}
	// Deterministic order for the wire (and for test stability).
	slices.Sort(nb)
	return slices.Compact(nb)
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
		r := ref.ByIndex(u)
		if o.n.world.LifeOf(r) == sim.Gone {
			continue
		}
		if o.ver[u] != o.roundVer[u] {
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
		if ok && len(nb) <= 1 {
			o.granted[r] = true
		} else {
			delete(o.granted, r)
		}
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
