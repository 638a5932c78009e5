package node

import (
	"testing"

	"fdp/internal/obs"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/transport"
)

// sink is a peer that swallows what it is sent.
type sink struct{}

func (sink) HandleDeliver(transport.NodeID, ref.Ref, sim.Message) {}
func (sink) HandleBounce(transport.NodeID, ref.Ref, sim.Message)  {}
func (sink) HandleControl(transport.NodeID, []byte)               {}

// roundOpenNode builds both nodes of a 2-node run and returns the one that
// owns a live leaver, on a loopback mesh whose other port is a sink, with an
// oracle round open and the peer's honest answer to that round. The node is
// never Run: the test goroutine plays the pump.
func roundOpenNode(tb testing.TB, reg *obs.Registry) (n *Node, honest []byte) {
	tb.Helper()
	var ns [2]*Node
	for i := range ns {
		var err error
		ns[i], err = New(Config{ID: i, Nodes: 2, Scenario: testScenario(6, 42), Metrics: reg})
		if err != nil {
			tb.Fatal(err)
		}
	}
	n, peer := ns[0], ns[1]
	if len(n.ownedLeave) == 0 {
		n, peer = peer, n
	}
	mesh := transport.NewLoopback(1)
	for i := range ns { // port ids follow attach order
		if i == n.cfg.ID {
			n.tr = mesh.Attach(n)
		} else {
			mesh.Attach(sink{})
		}
	}
	n.orc.startRound()
	if !n.orc.roundOpen() {
		tb.Fatal("no round open: the scenario gave neither node a leaver")
	}
	honest = marshalCtl(ctlMsg{K: "oa", R: n.orc.round, N: peer.cfg.ID, A: peer.orc.answerFor(n.orc.roundUs)})
	return n, honest
}

// TestDispatchRefusesForeignSender: the sender id of an inbound frame is
// whatever the wire claimed. At the parent a frame "from node 7" indexed
// the per-source watermarks of a 2-node run and panicked the pump.
func TestDispatchRefusesForeignSender(t *testing.T) {
	reg := obs.NewRegistry()
	n, _ := roundOpenNode(t, reg)
	to := n.owned[0]
	msg := sim.StampCausal(sim.NewMessage("present", sim.RefInfo{Ref: n.ownedLeave[0], Mode: sim.Leaving}), 99, 0, 1)
	queued := n.world.Stats().TotalInQueue
	for _, from := range []transport.NodeID{7, 2, -1, -5} {
		for _, kind := range []inKind{inData, inBounce, inControl} {
			if kind != inData && from == transport.LocalBounce {
				continue // HandleBounce files that one as the transport's own give-up
			}
			n.dispatch(inbound{kind: kind, from: from, to: to, msg: msg, payload: []byte(`{"k":"done","n":0}`)})
		}
	}
	if got := n.world.Stats().TotalInQueue; got != queued {
		t.Fatalf("a refused frame was injected: %d → %d queued", queued, got)
	}
	if got := transport.RejectedCounter(reg, transport.NodeID(n.cfg.ID)).Value(); got != 10 {
		t.Fatalf("rejected frames = %d, want 10", got)
	}
	// The same frame from a node of the run goes through.
	n.dispatch(inbound{kind: inData, from: transport.NodeID(1 - n.cfg.ID), to: to, msg: msg})
	if got := n.world.Stats().TotalInQueue; got != queued+1 {
		t.Fatalf("a frame from the peer was not injected: %d → %d queued", queued, got)
	}
}

// TestOracleIgnoresAnswerFromNoNode: "done" bounds-checked its node, "oa"
// did not. At the parent an answer claiming n = 9 completed the count of a
// 2-node round and maybeGrant indexed byNode[9].
func TestOracleIgnoresAnswerFromNoNode(t *testing.T) {
	n, honest := roundOpenNode(t, nil)
	peer := 1 - n.cfg.ID
	for _, claimed := range []int{9, 2, -1} {
		n.orc.handleControl(peer, marshalCtl(ctlMsg{K: "oa", R: n.orc.round, N: claimed}))
	}
	answered := 0
	for _, a := range n.orc.answers {
		if a != nil {
			answered++
		}
	}
	if !n.orc.roundOpen() || answered != 1 {
		t.Fatalf("misattributed answers reached the round: open=%v answers=%d", n.orc.roundOpen(), answered)
	}
	if got := n.rejected.Value(); got != 3 {
		t.Fatalf("rejected answers = %d, want 3", got)
	}
	n.orc.handleControl(peer, honest)
	if n.orc.roundOpen() {
		t.Fatal("the peer's honest answer did not close the round")
	}
}

// FuzzControl throws arbitrary control payloads from arbitrary sender ids at
// a node with a round open. Nothing may panic, and whatever the payload
// claimed, the round's answers stay keyed by nodes of the run and the
// oracle keeps per-leaver state for leavers of the run alone: a query naming
// arbitrary indexes grows nothing.
func FuzzControl(f *testing.F) {
	n, honest := roundOpenNode(f, nil)
	f.Add(1, honest)
	f.Add(1, []byte(`{"k":"oa","r":1,"n":9}`))
	f.Add(7, []byte(`{"k":"done","n":0}`))
	f.Add(0, []byte(`{"k":"oq","r":3,"n":1,"u":[0,5,-4,2147483647,9223372036854775807]}`))
	f.Add(1, []byte(`{"k":"oa","r":1,"n":1,"a":[{"u":1,"s":[1],"r":[],"nb":[-1,99]}]}`))
	f.Add(-1, []byte(`{"k":"done","n":-1}`))
	f.Add(0, []byte(`not json`))

	f.Fuzz(func(t *testing.T, from int, payload []byte) {
		// Every input meets the same state: round 1 open, nothing refused.
		n.orc, n.rejected = newDistOracle(n), new(obs.Counter)
		size := len(n.orc.leavers)
		n.orc.startRound()
		n.dispatch(inbound{kind: inControl, from: transport.NodeID(from), payload: payload})
		if n.orc.roundOpen() && len(n.orc.answers) != n.cfg.Nodes {
			t.Fatalf("round holds %d answer slots for %d nodes", len(n.orc.answers), n.cfg.Nodes)
		}
		if (from < 0 || from >= n.cfg.Nodes) && n.rejected.Value() == 0 {
			t.Fatalf("control frame from node %d of %d was not refused", from, n.cfg.Nodes)
		}
		if len(n.orc.leavers) != size {
			t.Fatalf("the per-leaver table grew from %d to %d indexes", size, len(n.orc.leavers))
		}
		for u, st := range n.orc.leavers {
			if leaver := n.global.Leaving.Has(ref.ByIndex(u)); (st != nil) != leaver {
				t.Fatalf("index %d: per-leaver state %v, a leaver of the run %v", u, st != nil, leaver)
			}
		}
	})
}
