// Package node runs one node of a multi-node churn run: a slice of the
// global scenario driven by the sequential engine, stitched to its siblings
// by a transport (DESIGN.md §15).
//
// Deployment is coordinator-free. Every node rebuilds the identical global
// scenario from the shared recipe (churn.TryBuild is a pure function of the
// config, and trace.Scenario serializes the config), keeps only the
// processes it owns — ownership is round-robin by process index — and wires
// its engine's router hook to the transport: a send whose target lives
// elsewhere leaves as a wire frame, arrives at the owner, and is injected
// with its causal identity intact. Each node seeds its causal counter into
// a disjoint namespace (trace.NodeCausalBase), so the per-node journals
// join into one happens-before order (trace.Join).
//
// The oracle is the distributed SINGLE of oracle.go: exit permissions are
// granted per leaver by its owner from consistent-round global snapshots
// and revoked on any fresh relevant traffic. Termination is gossiped: a
// node whose owned leavers are all gone says so, rebroadcasting until every
// node agrees; then each node drains stragglers for a linger period (late
// frames still inject or bounce — exits must not corrupt staying processes'
// final state) and writes its summary.
package node

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"fdp/internal/churn"
	"fdp/internal/obs"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
	"fdp/internal/transport"
)

// Config describes one node's slice of a multi-node run.
type Config struct {
	// ID is this node's id, in [0, Nodes); Nodes the total count.
	ID, Nodes int
	// Scenario is the shared global recipe. Every node must receive the
	// exact same value — the run's correctness rests on all nodes
	// rebuilding the same world.
	Scenario trace.Scenario
	// Journal, if non-nil, receives this node's journal (engine "node").
	// The node flushes it at every wind-down and on Interrupt.
	Journal io.Writer

	// MaxWall bounds the run (default 60s; TimedOut if hit), Linger is the
	// post-agreement drain window (default 500ms), RoundEvery the owner's
	// oracle round interval (default 50ms). Like StallWindow, they run on
	// the clock the node is stepped on: the wall clock under Run, the
	// loopback's virtual clock under RunLoopback.
	MaxWall    time.Duration
	Linger     time.Duration
	RoundEvery time.Duration

	// Metrics, if non-nil, receives this node's liveness series
	// (fdp_progress_* / fdp_stall_*, labeled node="<id>"). Pass the same
	// registry to transport.TCPConfig.Metrics for one /metrics view
	// combining per-link transport and per-leaver progress (cmd/fdpnode
	// -serve does).
	Metrics *obs.Registry
	// StallWindow enables the liveness watchdog on the pump loop: every
	// window (1ms at least) with owned leavers remaining and no settles is
	// classified (obs.StallKind). Pick it well above RoundEvery — a grant
	// takes at least one oracle round. 0 disables. The node's obs.Watch, with
	// its flight recorder of trace.DefaultFlightCap records, runs whenever
	// Metrics, StallWindow or OnStall is set.
	StallWindow time.Duration
	// OnStall, if non-nil, receives the FIRST stall report, its flight
	// snapshot framed as an engine-"node" journal fragment (joinable with the
	// siblings' journals). Called on the pump goroutine; cmd/fdpnode writes
	// the artifacts next to the journal.
	OnStall func(*obs.StallReport)
}

// The pump's fixed pacing: stepBatch local actions per Step (plus one per
// inbox entry it absorbed), the done gossip rebroadcast every doneEvery,
// and an idle Step followed by idleSleep of rest — Run sleeps it,
// RunLoopback parks the node for it.
const (
	stepBatch = 64
	doneEvery = 200 * time.Millisecond
	idleSleep = time.Millisecond
)

// inKind discriminates inbox entries.
type inKind uint8

const (
	inData inKind = iota
	inBounce
	inLocalBounce
	inControl
)

type inbound struct {
	kind    inKind
	from    transport.NodeID
	to      ref.Ref
	msg     sim.Message
	payload []byte
}

// Node is one running slice. It implements transport.Handler; handler
// calls enqueue into the inbox and everything else happens in Step, on the
// single pump goroutine of Run or RunLoopback — the engine, the journal
// hook, the oracle state and the summary never see concurrency.
type Node struct {
	cfg    Config
	global *churn.Scenario
	world  *sim.World
	sched  sim.Scheduler
	jw     *trace.Writer
	orc    *distOracle
	tr     transport.Transport

	owned      []ref.Ref // sorted
	ownedLeave []ref.Ref // owned leavers, sorted

	// inbox carries handler calls to the pump. A full inbox blocks the TCP
	// reader — backpressure to the sending peer (the loopback's per-Advance
	// burst keeps RunLoopback's inboxes short of full). dead closes when the
	// node finishes, unblocking handlers so the transport can drain.
	inbox chan inbound
	dead  chan struct{}

	// Exactly-once injection state, per source node. Data frames from node
	// j carry CIDs stamped by j's world counter, so they arrive in
	// increasing CID order per link and a high watermark recognizes
	// transport retransmits (redial after a torn write, chaos duplication).
	// Bounce frames echo arbitrary foreign CIDs, so they get a seen-set;
	// bounces are rare, the set stays small.
	hiCID      []uint64
	seenBounce []map[uint64]bool

	doneNodes []bool
	steps     int
	// rejected counts inbound frames refused for what they claim — a sender
	// id or an answering node that is no node of this run.
	rejected *obs.Counter

	// Pump clock state, on the clock Step is given: the first Step, the
	// last round and done broadcast, the linger's end (zero until agreed),
	// and how long the open round may wait for its answers.
	start, lastRound, lastDone, lingerEnd time.Time
	roundWait                             time.Duration
	timedOut                              bool

	// watch is the liveness watch (DESIGN.md §16), nil unless Metrics,
	// StallWindow or OnStall is set; ticked on the pump goroutine only.
	watch *obs.Watch
}

// New rebuilds the global scenario and prepares this node's world. The
// transport is attached by Run or RunLoopback so New can be used as the
// transport.Handler during transport construction.
func New(cfg Config) (*Node, error) {
	if cfg.Nodes < 1 || cfg.ID < 0 || cfg.ID >= cfg.Nodes {
		return nil, fmt.Errorf("node: id %d out of range for %d nodes", cfg.ID, cfg.Nodes)
	}
	if cfg.MaxWall <= 0 {
		cfg.MaxWall = 60 * time.Second
	}
	if cfg.Linger <= 0 {
		cfg.Linger = 500 * time.Millisecond
	}
	if cfg.RoundEvery <= 0 {
		cfg.RoundEvery = 50 * time.Millisecond
	}
	global, err := cfg.Scenario.BuildScenario()
	if err != nil {
		return nil, err
	}

	n := &Node{cfg: cfg, global: global,
		inbox:      make(chan inbound, 1<<16),
		dead:       make(chan struct{}),
		hiCID:      make([]uint64, cfg.Nodes),
		seenBounce: make([]map[uint64]bool, cfg.Nodes),
		doneNodes:  make([]bool, cfg.Nodes),
		rejected:   transport.RejectedCounter(cfg.Metrics, transport.NodeID(cfg.ID)),
	}
	n.orc = newDistOracle(n)
	w := sim.NewWorld(n.orc)
	// The scenario's processes come in index order. The siblings' count in
	// the ledger as live ones do, so a leaver's row is this node's share of
	// its degree, wherever it runs.
	for _, r := range global.Nodes {
		if n.ownerOf(r) != cfg.ID {
			w.HostElsewhere(r, global.World.ModeOf(r))
			continue
		}
		n.owned = append(n.owned, r)
		w.AddProcess(r, global.World.ModeOf(r), global.World.ProtocolOf(r))
		if global.World.LifeOf(r) == sim.Asleep {
			w.ForceAsleep(r)
		}
		if global.Leaving.Has(r) {
			n.ownedLeave = append(n.ownedLeave, r)
		}
	}
	// The builder's initial in-flight messages keep their small CIDs
	// (Inject preserves them; Enqueue would restamp), so journal joins can
	// recognize them as owner-injected.
	for _, r := range n.owned {
		for _, m := range global.World.ChannelSnapshot(r) {
			w.Inject(r, m)
		}
	}
	w.SeedCausal(trace.NodeCausalBase(cfg.ID))
	w.SetRouter(n.route)
	w.SealInitialState()
	hdr := trace.Header{Version: trace.Version, Engine: trace.EngineNode,
		Scenario: cfg.Scenario, Node: cfg.ID, Nodes: cfg.Nodes}
	if cfg.Journal != nil {
		n.jw = trace.NewWriter(cfg.Journal, hdr)
		w.AddEventHook(n.jw.Record)
	}
	if cfg.Metrics != nil || cfg.StallWindow > 0 || cfg.OnStall != nil {
		// The watch's series are labeled with the node id, so a scrape across
		// the cluster tells slices apart. Its window is nanoseconds of the
		// pump clock.
		var every uint64
		if cfg.StallWindow > 0 {
			every = uint64(max(cfg.StallWindow, time.Millisecond))
		}
		n.watch = obs.NewWatch(w, obs.WatchConfig{Leavers: n.ownedLeave, Every: every,
			Metrics: cfg.Metrics, Labels: fmt.Sprintf("node=%q", fmt.Sprint(cfg.ID)), Header: hdr})
	}
	n.world = w
	// Distinct per-node seeds: each node schedules its own slice. Under
	// RunLoopback the whole run replays from the scenario's seed; under Run
	// the interleaving of nodes is the wall clock's.
	n.sched = sim.NewRandomScheduler(cfg.Scenario.Seed+int64(cfg.ID)*7919+1, 0)
	return n, nil
}

// ownerOf is the global ownership function: round-robin by process index.
func (n *Node) ownerOf(r ref.Ref) int { return ref.Index(r) % n.cfg.Nodes }

// enqueue hands one inbound entry to the pump. It blocks on a full inbox
// while the pump lives (backpressure to the peer) and discards once the pump
// has exited — late frames after the summary have nowhere to go, and a
// blocked handler would wedge the transport's reader forever on Close.
func (n *Node) enqueue(in inbound) {
	select {
	case n.inbox <- in:
	case <-n.dead:
	}
}

// HandleDeliver implements transport.Handler.
func (n *Node) HandleDeliver(from transport.NodeID, to ref.Ref, msg sim.Message) {
	n.enqueue(inbound{kind: inData, from: from, to: to, msg: msg})
}

// HandleBounce implements transport.Handler.
func (n *Node) HandleBounce(from transport.NodeID, to ref.Ref, msg sim.Message) {
	k := inBounce
	if from == transport.LocalBounce {
		k = inLocalBounce
	}
	n.enqueue(inbound{kind: k, from: from, to: to, msg: msg})
}

// HandleControl implements transport.Handler.
func (n *Node) HandleControl(from transport.NodeID, payload []byte) {
	n.enqueue(inbound{kind: inControl, from: from, payload: append([]byte(nil), payload...)})
}

// route is the engine's outbound hook, run inside the sending process's
// atomic action on the pump goroutine.
func (n *Node) route(to ref.Ref, msg sim.Message) bool {
	owner := n.ownerOf(to)
	if owner == n.cfg.ID {
		// Ours but unknown or gone: the model's drop path handles it.
		return false
	}
	if !n.tr.Send(transport.NodeID(owner), to, msg) {
		return false
	}
	n.orc.noteSent(owner, to, msg)
	return true
}

// Result is what one node reports at the end of its run.
type Result struct {
	Summary Summary
	// Converged is the local view of the global outcome: every node
	// gossiped done, and every owned leaver is gone.
	Converged bool
}

// Run is the wall-clock pump loop: it steps the node on time.Now until the
// node finishes, the stop channel closes, or MaxWall elapses, resting
// idleSleep after every idle Step. It owns the pump goroutine; tr's
// handler must be this node.
func (n *Node) Run(tr transport.Transport, stop <-chan struct{}) Result {
	n.tr = tr
	for {
		select {
		case <-stop:
			return n.finish(true)
		default:
		}
		//fdplint:ignore detiter Run is the wall-clock loop; Step takes the time it reads
		busy, done := n.Step(time.Now())
		if done {
			return n.finish(false)
		}
		if !busy {
			time.Sleep(idleSleep) //fdplint:ignore detiter the wall-clock loop rests an idle pump
		}
	}
}

// Step runs one pump iteration at time now: it absorbs up to inboxBatch
// inbox entries, runs stepBatch plus that many local actions, then opens an
// oracle round when one is due, gossips done and ticks the watchdog; once
// every node agreed it only drains until the linger is over. busy reports
// frames absorbed or deliveries pending; done that the linger is over or
// MaxWall has passed since the first Step.
func (n *Node) Step(now time.Time) (busy, done bool) {
	if n.start.IsZero() {
		n.start = now
	}
	if now.Sub(n.start) > n.cfg.MaxWall {
		n.timedOut = true
		return false, true
	}
	absorbed := n.drainInbox()
	// The batch scales with what the drain injected: every inbound frame
	// needs a delivery step, so a fixed batch would let a flooding sibling
	// starve this engine and its owned leavers.
	for i := 0; i < stepBatch+absorbed; i++ {
		a, ok := n.sched.Next(n.world)
		if !ok {
			break
		}
		n.world.Execute(a)
		n.steps++
	}
	// Otherwise the batch was timeout spinning, which Run and RunLoopback pace
	// rather than flood the siblings with self-introductions.
	busy = absorbed > 0 || n.world.Stats().TotalInQueue > 0
	if !n.lingerEnd.IsZero() {
		// Agreed: keep absorbing late frames. An exit on a fast node can
		// still bounce a slower node's in-flight message, and the bounce
		// must reach the sender's protocol before the final state is
		// summarized, or stayers would keep references the run invalidated.
		return busy, now.After(n.lingerEnd)
	}
	// An open round is left to gather answers and only declared lost (and
	// restarted) after roundWait: 20 × RoundEvery for a round opened after a
	// completed one, twice the lost round's wait for its successor, so a
	// round trip longer than the wait is outlasted, not restarted forever.
	due := n.cfg.RoundEvery
	if n.orc.roundOpen() {
		due = n.roundWait
	}
	if n.orc.ownsLive() && now.Sub(n.lastRound) >= due {
		n.roundWait = max(2*due, 20*n.cfg.RoundEvery)
		n.lastRound = now
		n.orc.startRound()
	}
	if n.localDone() && now.Sub(n.lastDone) >= doneEvery {
		n.lastDone = now
		n.doneNodes[n.cfg.ID] = true
		n.broadcastDone()
	}
	if n.allDone() {
		n.lingerEnd = now.Add(n.cfg.Linger)
		return true, false
	}
	n.checkStall(now)
	return busy, false
}

// finish ends the run: it releases blocked handlers, builds the summary
// and flushes the journal (Interrupt).
func (n *Node) finish(interrupted bool) Result {
	close(n.dead)
	sum := n.buildSummary(interrupted, n.timedOut)
	n.Interrupt()
	return Result{Summary: sum, Converged: !interrupted && !n.timedOut && n.allDone() && n.localDone()}
}

// meshTick is how far RunLoopback's virtual clock moves per round of
// Steps: the time a busy Step is taken to cost.
const meshTick = 250 * time.Microsecond

// RunLoopback runs a whole mesh in one goroutine on a transport.Loopback:
// cfgs[i] must be node i of a len(cfgs)-node run of one scenario, whose
// seed draws the loopback's latencies and the node step order. Each round
// delivers the frames due, steps every node not parked, and moves the
// clock by meshTick; an idle Step parks its node for idleSleep, the rest
// Run takes. chaos, if non-nil, sets the loopback's hooks first. The same
// configs give byte-identical results and journals.
func RunLoopback(cfgs []Config, chaos func(*transport.Loopback)) ([]Result, error) {
	return runLoopback(cfgs, chaos, nil)
}

// runLoopback is RunLoopback, calling after, if non-nil, after every Step
// with the nodes still running (nil where a node has finished).
func runLoopback(cfgs []Config, chaos func(*transport.Loopback), after func([]*Node)) ([]Result, error) {
	seed := cfgs[0].Scenario.Seed
	mesh := transport.NewLoopback(seed)
	ns := make([]*Node, len(cfgs))
	for i, cfg := range cfgs {
		n, err := New(cfg)
		if err != nil {
			return nil, err
		}
		if n.tr = mesh.Attach(n); cfg.ID != i || cfg.Nodes != len(cfgs) {
			return nil, fmt.Errorf("node: config %d is node %d of %d", i, cfg.ID, cfg.Nodes)
		}
		ns[i] = n
	}
	if chaos != nil {
		chaos(mesh)
	}
	rng := rand.New(rand.NewSource(seed))
	results, wake := make([]Result, len(ns)), make([]time.Time, len(ns))
	for left := len(ns); left > 0; mesh.Advance(meshTick) {
		now := mesh.Now()
		for _, i := range rng.Perm(len(ns)) {
			if ns[i] == nil || now.Before(wake[i]) {
				continue
			}
			busy, done := ns[i].Step(now)
			if done {
				results[i], ns[i] = ns[i].finish(false), nil
				left--
			} else if !busy {
				wake[i] = now.Add(idleSleep)
			}
			if after != nil {
				after(ns)
			}
		}
	}
	return results, nil
}

// inboxBatch bounds how many inbox entries one pump iteration absorbs. The
// bound matters: siblings spinning timeout actions can keep the inbox
// non-empty indefinitely, and an unbounded drain would starve the local
// engine outright — injected messages would pile up in channels no step
// ever delivers.
const inboxBatch = 1024

// drainInbox processes up to inboxBatch queued entries without blocking and
// returns how many it processed.
func (n *Node) drainInbox() int {
	for i := 0; i < inboxBatch; i++ {
		select {
		case in := <-n.inbox:
			n.dispatch(in)
		default:
			return i
		}
	}
	return inboxBatch
}

func (n *Node) dispatch(in inbound) {
	// The sender id is whatever the frame claimed, and it indexes the
	// per-source state below and in the oracle: refuse any that is no node
	// of this run. Only the transport's own give-up speaks as LocalBounce.
	if in.kind != inLocalBounce && (in.from < 0 || int(in.from) >= n.cfg.Nodes) {
		n.rejected.Inc()
		return
	}
	switch in.kind {
	case inData:
		// Exactly-once injection: a frame at or below the source's CID
		// watermark is a transport retransmit already processed here. Drop
		// it before any accounting — the sender counted it once, so must
		// we, or the oracle's matrix never balances again.
		if cid := in.msg.CID(); cid != 0 {
			if cid <= n.hiCID[in.from] {
				return
			}
			n.hiCID[in.from] = cid
		}
		// Count before injecting: a fresh relevant frame revokes its
		// leaver's grant before the message can reach a channel, closing
		// the grant-vs-late-arrival race for owned leavers.
		n.orc.noteRecv(int(in.from), in.to, in.msg)
		if !n.world.Inject(in.to, in.msg) {
			// Target unknown or gone here: return it. The bounce frame is
			// relevant traffic too — it keeps the matrix unbalanced until
			// the origin has absorbed the failure.
			if n.tr.SendBounce(in.from, in.to, in.msg) {
				n.orc.noteSent(int(in.from), in.to, in.msg)
			}
		}
	case inBounce:
		// Bounced messages echo the original (foreign-namespace) CID, so
		// retransmit detection uses a seen-set instead of the watermark.
		if cid := in.msg.CID(); cid != 0 {
			if n.seenBounce[in.from] == nil {
				n.seenBounce[in.from] = make(map[uint64]bool)
			}
			if n.seenBounce[in.from][cid] {
				return
			}
			n.seenBounce[in.from][cid] = true
		}
		n.orc.noteRecv(int(in.from), in.to, in.msg)
		n.world.Bounce(in.msg.From(), in.to, in.msg)
	case inLocalBounce:
		// The transport gave up on the link: the data frame never arrived
		// anywhere, so undo its send count.
		n.orc.noteUnsent(n.ownerOf(in.to), in.to, in.msg)
		n.world.Bounce(in.msg.From(), in.to, in.msg)
	case inControl:
		n.orc.handleControl(int(in.from), in.payload)
	}
}

// checkStall ticks the liveness watch on the nanoseconds since the first
// Step. The first stall is handed to OnStall and recorded in the summary;
// later verdicts only keep the fdp_stall_* series current.
func (n *Node) checkStall(now time.Time) {
	if n.watch == nil {
		return
	}
	// Pending = undelivered local messages plus frames parked in the inbox.
	_, first := n.watch.Tick(uint64(now.Sub(n.start)), uint64(n.steps), func() int {
		return n.world.Stats().TotalInQueue + len(n.inbox)
	})
	if first != nil && n.cfg.OnStall != nil {
		n.cfg.OnStall(first)
	}
}

// localDone reports whether every owned leaver is gone.
func (n *Node) localDone() bool { return !n.orc.ownsLive() }

func (n *Node) allDone() bool {
	for _, d := range n.doneNodes {
		if !d {
			return false
		}
	}
	return true
}

func (n *Node) broadcastDone() {
	n.tr.BroadcastControl(marshalCtl(ctlMsg{K: "done", N: n.cfg.ID}))
}

// Interrupt flushes the journal from a signal handler context. Safe to call
// concurrently with the pump; the journal writer is a leaf.
func (n *Node) Interrupt() {
	if n.jw != nil {
		n.jw.Flush()
	}
}
