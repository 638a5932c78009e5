// Package parallel is the concurrent runtime: a sharded M:N scheduler that
// drives up to hundreds of thousands of processes on a fixed worker pool,
// with true parallel execution on all cores. It runs the same Protocol
// implementations as the sequential simulator (they only ever see the
// sim.Context interface) and is used to cross-validate the simulator's
// outcomes (experiment E16, internal/diffval) and to measure event
// throughput and time-to-exit at scale (experiment E11, the bench harness).
//
// Architecture (DESIGN.md §12):
//
//   - The runtime is split into shards, one worker goroutine each (default
//     GOMAXPROCS). Every process is addressed by its reference's index and
//     owned by exactly one shard; each worker alternates bounded delivery
//     and timeout rounds over its own processes, so scheduling costs O(work)
//     instead of O(goroutines).
//   - Mailboxes and run queues are plain data private to the owning worker.
//     A send to a process of the sender's own shard appends to the mailbox;
//     any other goes to a per-target-shard outbox, whose array is handed
//     to the target shard's inbox whole, under one hold of its leaf lock
//     (mbMu), between two actions once it holds 32 messages — never in the
//     middle of one — and before the worker releases its action lock. The
//     receiver absorbs its inbox behind one atomic flag; a pauser absorbs
//     every inbox, so a paused world has every in-flight message in a
//     mailbox. Arrays are recycled, not dropped: a drained mailbox's array
//     goes to its shard's free list for the next empty mailbox, and a
//     drained batch goes back to a sender at its next deposit. Counters
//     are per shard and summed at read, causal ids are drawn in blocks: a
//     message crosses the runtime without touching a cache line every
//     worker writes.
//   - Every action executes under the read side of its shard's action lock
//     (actMu). A consistent global view — snapshots, Mutate, exit
//     validation by a stateful oracle — takes the write side of every
//     shard, from a rotating start (pauseAll), replacing the old single
//     global RWMutex: workers contend only on their own shard's cache line.
//   - An exit commits in exactly two places: in the leaver's own action, on
//     its worker, or in a pauser, with every shard stopped. For an oracle
//     that judges the relevant degree alone (SINGLE) exits are judged where
//     the degree changes: every pair update that moves a leaver's ledger row
//     re-judges it under the row's lock (degree.go), and the worker running
//     the leaver's action commits the exit that action asks for, judged once
//     more on the row, in one critical section of the leaver's own lock.
//     Nobody stops and nothing waits for an epoch. Any other oracle, any
//     request filed while something is asleep, and any request of a staying
//     process is validated by the coordinator in epoch batches: a process
//     requesting exit is suspended (it executes no further actions — its
//     guard must still hold at commit time) until the next epoch's verdict,
//     so a stale cached oracle answer can request an exit but never commit
//     one; each such epoch pauses the world and validates every request
//     against ONE sealed snapshot, each commit folded back into it
//     (sim.World.MarkGone) so later requests in the same batch are judged
//     against the post-commit state.
//   - The runtime steps on a clock it is given. A shard's unit of work is
//     one iteration (shard.iterate), the coordinator's one epoch; both read
//     time only from the runtime's clock, which Start sets to the wall clock
//     and RunSeeded to a virtual one, and an exit is stamped with it when it
//     commits. Timeout rounds fire at most once per timeoutTick of that
//     clock: weak fairness needs periodic timeouts, not timeout storms at
//     CPU speed. Start's drivers read the wall clock and pace: a hot worker
//     yields the processor after every busy iteration so the coordinator
//     keeps its cadence even on single-core hosts, an idle worker sleeps
//     until its next timeout round is due, and a shard blocks entirely once
//     every owned process is asleep or gone; a batch left in its inbox wakes
//     it immediately. RunSeeded runs the same iterations and epochs on the
//     caller's goroutine, on a virtual clock, in an order drawn from a seed:
//     a seeded run replays byte for byte.
//
// Oracles used with this runtime must be stateless values (like
// oracle.Single); Evaluate calls run on sealed snapshots, never on live
// state. Every oracle call — Evaluate or JudgeDegree — and every call of the
// oracle hook is serialized by oracleMu: JudgeDegree runs on whichever
// goroutine moved a leaver's row, a worker or a pauser, one call at a time.
//
//fdp:nondecomposable runtime machinery: implements the model itself (delivery, absorption, exit commits), not a protocol in 𝒫; frozenProto is a snapshot shim, not a protocol
package parallel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fdp/internal/graph"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Idle sleep bounds for the shard workers and the coordinator's epoch
// cadence. Small enough that timeout-driven protocol progress stays fast,
// large enough that a converged system does not spin. The coordinator
// additionally never sleeps less than pauseDutyFactor times the last epoch's
// duration, so at n=100k the world is not frozen back-to-back.
const (
	idleMin         = 5 * time.Microsecond
	idleMax         = time.Millisecond
	coordMin        = 200 * time.Microsecond
	coordMax        = 4 * time.Millisecond
	pauseDutyFactor = 3
)

// proc is one concurrent process.
type proc struct {
	id    ref.Ref
	mode  sim.Mode
	proto sim.Protocol
	mb    mailbox // the owning worker's (or a pauser's)

	// sh is the owning shard, dealt once by AddProcess and never changed.
	sh *shard

	// inRun reports whether the process sits in its shard's run queue. The
	// owning worker's, like the queue.
	inRun bool

	// depth is the model's channel length: messages admitted for the process
	// and not yet popped, wherever they wait (an outbox, an inbox, the
	// mailbox). Senders add at admit, the owning worker subtracts at the pop;
	// under a full pause it equals mb.len().
	depth atomic.Int32

	// life is read concurrently (sends, snapshots) and written by the owning
	// worker or a pauser: 0 awake, 1 asleep, 2 gone. It turns 2 under degMu,
	// in retire, and nowhere else.
	life atomic.Int32

	// exitPending suspends the process between an exit request filed for the
	// coordinator and its batched verdict: the worker delivers nothing to it
	// and runs no timeouts on it, so the state the guard was evaluated in
	// cannot drift before the commit. Set by the worker (CAS) and by every
	// grant (retire), cleared by the coordinator only when it denies: a
	// granted process stays suspended for good, so a worker never finds it
	// neither suspended nor gone.
	exitPending atomic.Bool

	wantExit  bool
	wantSleep bool

	// clock is the process's Lamport clock and curCID the causal ID of the
	// current action's trigger event. Both are touched only under the
	// shard's action read lock by the one worker that owns the process (or
	// under a full pause), so they need no further synchronization.
	clock  uint64
	curCID uint64

	// oracleOK caches the process's oracle answer. For a degree oracle it is
	// JudgeDegree of the leaver's ledger row, rewritten under degMu by every
	// change of the row (judge); otherwise the coordinator's last evaluation
	// on a frozen world, and the degree path's too while something sleeps.
	// An action reads it without a lock; exits are judged again, on the row
	// or on a sealed snapshot, before they commit.
	oracleOK atomic.Bool

	// degMu guards the process's row of the runtime's ledger (see degree.go):
	// pair updates lock both endpoints in reference order, an exit commit
	// takes its neighbors' one at a time.
	degMu sync.Mutex //fdp:lockordered pair updates lock both endpoints in reference order

	// owed is the other end of the pair whose −1 the delivery in progress
	// still owes (degree.go, the reply handoff). The owning worker's; nil
	// between actions.
	owed *proc

	// ready reports that the process sits on its shard's ready list
	// (shard.ready). Set by whoever turned oracleOK true before it appends
	// the index, cleared by the owning worker once it has popped it.
	ready atomic.Bool

	// ctx is the sim.Context every action of this process runs with.
	ctx pctx

	rt *Runtime
}

// Runtime drives a set of processes concurrently.
type Runtime struct {
	procs  []*proc // dense, indexed by ref.Index; nil where no process was added
	shards []*shard
	oracle sim.Oracle // evaluated on frozen snapshots via the World shim

	// leavers are the processes AddProcess was given as leaving, by
	// reference index, in the order it was given them. A mode never
	// changes, so seal judges the leavers and orders the timeout laps from
	// this list, not from procs.
	leavers []int32

	// freezeMu serializes world pausers (Freeze, Mutate, MailboxDepths,
	// ExitLatencies, Stop, the epochs that settle a batch) ahead of the
	// per-shard action locks; see pauseAll. pauseFirst, guarded by it, is the
	// shard the next pause locks first.
	freezeMu   sync.Mutex
	pauseFirst int

	// oracleMu serializes every oracle call — Evaluate on a frozen world,
	// JudgeDegree wherever a row moves — and every call of oracleHook, so
	// an oracle or hook that counts in plain fields never races with itself.
	// Leaf lock: nothing else is acquired under it.
	oracleMu sync.Mutex //fdp:lockleaf

	// exitMu guards the pending-exit list: the requests the coordinator
	// settles. Leaf lock.
	exitMu       sync.Mutex //fdp:lockleaf
	pendingExits []*proc

	// exitKick is a capacity-1 signal that exit requests are pending, so the
	// coordinator runs an early epoch instead of sleeping out its interval.
	exitKick chan struct{}

	// causal is the runtime's causal-ID counter, the concurrent analogue of
	// the simulator's. Enqueue seeds it past any transplanted message's CID
	// (MirrorWorld preserves the build world's IDs), so the initial causal
	// vocabulary is identical across engines and fresh IDs never collide.
	causal atomic.Uint64

	// jd is the oracle as a degree oracle, nil unless its verdict is a pure
	// degree function: set at Start, it enables the ledger (degree.go).
	// asleep counts processes with life==1 — while it is zero nothing can
	// hibernate and no ledger row is below the frozen world's RelevantDegree
	// (equal to it at a full pause).
	jd     degreeOracle
	asleep atomic.Int64

	// The per-message counters (actions, sends, drops, events per kind) live
	// in the shards (shard.n) and are summed at read; these three move once
	// per exit request or epoch.
	exits      atomic.Uint64
	exitDenied atomic.Uint64 // exit requests rejected by revalidation
	epochs     atomic.Uint64 // coordinator epochs, whether or not they had a batch to settle

	// hooks are the synchronous event observers (AddEventHook), written
	// only before Start and read-only afterwards.
	hooks []func(sim.Event)
	// oracleHook, when set, observes every exit-validation verdict — the
	// grant/denial stream the liveness watchdog classifies stalls from.
	// Called by whoever judged the exit (a worker inside the leaver's
	// action, or the coordinator at a pause) under oracleMu and no degMu
	// (SetOracleHook).
	oracleHook func(ref.Ref, bool)

	// clock reads the time since the run began: the wall clock from Start
	// (startTime is its origin), RunSeeded's virtual clock from there. An
	// exit is stamped with it at the moment it commits. Until either sets it,
	// it reads zero.
	clock     func() time.Duration
	startTime time.Time

	stop     atomic.Bool
	closed   atomic.Bool   // set by Stop under its pause: nothing is admitted any more
	stopCh   chan struct{} // closed by Stop; unblocks idle waits promptly
	stopOnce sync.Once
	wg       sync.WaitGroup

	// initially is the weakly-connected-component partition captured at
	// Start (and re-captured by MutableView.Reseal after a fault strike).
	// Written only before the goroutines exist or under a full pause.
	initially [][]ref.Ref

	// ledger holds the leavers' degree rows (degree.go), each guarded by its
	// process's degMu; the table is rebuilt only under a full pause.
	ledger graph.Ledger

	// from is the sealed world the runtime was mirrored from and fromGen
	// the generation of its seal (HandOver); seal takes the ledger and
	// components from it while it is still at that seal (sealedWorld). Nil
	// once seal ran, or AddProcess, Enqueue, ForceAsleep or Mutate changed
	// the runtime.
	from    *sim.World
	fromGen uint64
}

// Oracle is re-exported so callers pass the same oracles as the simulator.
type Oracle = sim.Oracle

// NewRuntime returns an empty runtime with the given oracle (may be nil) and
// one shard per GOMAXPROCS.
func NewRuntime(oracle Oracle) *Runtime {
	rt := &Runtime{
		oracle:   oracle,
		clock:    func() time.Duration { return 0 },
		stopCh:   make(chan struct{}),
		exitKick: make(chan struct{}, 1),
	}
	rt.makeShards(runtime.GOMAXPROCS(0))
	return rt
}

// SetShards fixes the worker count. Must be called before any AddProcess;
// processes are dealt reference-index-modulo-k and stay where they are dealt.
func (rt *Runtime) SetShards(k int) {
	if k < 1 {
		panic("parallel: SetShards needs at least one shard")
	}
	if len(rt.procs) > 0 {
		panic("parallel: SetShards after AddProcess")
	}
	rt.makeShards(k)
}

// Shards returns the worker-shard count.
func (rt *Runtime) Shards() int { return len(rt.shards) }

func (rt *Runtime) makeShards(k int) {
	rt.shards = make([]*shard, k)
	for i := range rt.shards {
		rt.shards[i] = &shard{idx: i, rt: rt, notify: make(chan struct{}, 1), outbox: make([][]parcel, k)}
	}
}

// lookup returns the process r names, or nil if r names none of this
// runtime: ⊥, a reference past every process added, or an identity no Space
// mints (ref.FromWire hands the transport whatever a peer put on the wire).
func (rt *Runtime) lookup(r ref.Ref) *proc {
	if i := ref.Index(r); uint(i) < uint(len(rt.procs)) {
		return rt.procs[i]
	}
	return nil
}

// mustProc is lookup for callers that build or strike a scenario: naming a
// process that was never added is their bug and fails loudly.
func (rt *Runtime) mustProc(r ref.Ref) *proc {
	p := rt.lookup(r)
	if p == nil {
		panic(fmt.Sprintf("parallel: unknown process %v", r))
	}
	return p
}

// AddProcess registers a process before Start, on shard index mod k for
// good.
func (rt *Runtime) AddProcess(r ref.Ref, mode sim.Mode, proto sim.Protocol) {
	idx := ref.Index(r)
	if idx < 0 {
		panic(fmt.Sprintf("parallel: cannot add process with reference %v (⊥, or minted by no Space)", r))
	}
	if rt.lookup(r) != nil {
		panic(fmt.Sprintf("parallel: duplicate process %v", r))
	}
	rt.from = nil
	sh := rt.shards[idx%len(rt.shards)]
	p := &proc{id: r, mode: mode, proto: proto, sh: sh, rt: rt}
	p.ctx.p = p
	sh.pids = append(sh.pids, int32(idx))
	sh.awake.Add(1)
	if mode == sim.Leaving {
		rt.leavers = append(rt.leavers, int32(idx))
	}
	if grow := idx + 1 - len(rt.procs); grow > 0 {
		rt.procs = append(rt.procs, make([]*proc, grow)...)
	}
	rt.procs[idx] = p
}

// Enqueue injects an initial in-flight message before Start. Messages that
// already carry a causal identity (transplanted from a sequential world by
// MirrorWorld) keep it and advance the runtime's causal counter past it;
// bare messages get a fresh CID.
func (rt *Runtime) Enqueue(to ref.Ref, msg sim.Message) {
	rt.from = nil
	if msg.CID() == 0 {
		msg = sim.StampCausal(msg, rt.causal.Add(1), 0, 0)
	} else if cur := rt.causal.Load(); msg.CID() > cur {
		rt.causal.Store(msg.CID())
	}
	rt.push(rt.mustProc(to), &msg)
}

// Inject delivers a message arriving from outside the runtime (the wire
// transport) into a live process's mailbox while the workers are running.
// Messages that already carry a causal identity keep it, and the runtime's
// causal counter is CAS-advanced past it so locally minted CIDs stay unique
// within this runtime; bare messages get a fresh CID. It reports whether the
// message was accepted — false for an unknown reference, a gone process, or
// a stopped runtime, in which case the caller owes the origin an
// undeliverable bounce.
//
// Locking: the caller is no worker, so the message goes to the owning shard's
// inbox as a batch of one, under that shard's action read lock (any read
// side blocks pauseAll, which takes every write side and then absorbs the
// inboxes). Inject keeps no outbox: the drained array deposit hands back is
// dropped.
func (rt *Runtime) Inject(to ref.Ref, msg sim.Message) bool {
	p := rt.lookup(to)
	if p == nil || p.life.Load() == 2 {
		return false
	}
	if msg.CID() == 0 {
		msg = sim.StampCausal(msg, rt.causal.Add(1), 0, 0)
	} else {
		for {
			cur := rt.causal.Load()
			if msg.CID() <= cur || rt.causal.CompareAndSwap(cur, msg.CID()) {
				break
			}
		}
	}
	p.sh.actMu.RLock()
	defer p.sh.actMu.RUnlock()
	if rt.closed.Load() {
		return false
	}
	_, ok := rt.admit(p, &msg)
	if ok {
		_ = p.sh.deposit([]parcel{{to: p, msg: msg}})
	}
	return ok
}

// ForceAsleep starts a process in the asleep state. It mirrors
// sim.World.ForceAsleep for scenario transplantation (FSP worlds whose
// initial state contains asleep processes) and must be called before Start.
func (rt *Runtime) ForceAsleep(r ref.Ref) {
	rt.from = nil
	if p := rt.mustProc(r); p.life.CompareAndSwap(0, 1) {
		p.sh.awake.Add(-1)
		rt.asleep.Add(1)
	}
}

// HandOver records that the runtime holds exactly the live processes of w —
// modes, lives, stored references, channels — as mirrored from it, if w is
// at its seal (sim.World.Sealed). Start (or RunSeeded) then takes w's
// initial components and, for a degree oracle, a copy of its ledger instead
// of freezing the runtime and sealing that, if w is still at that seal;
// otherwise, or once AddProcess, Enqueue, Inject, ForceAsleep or Mutate
// follows, it freezes and seals. The components are shared with w: neither
// modifies them. Call it before Start.
func (rt *Runtime) HandOver(w *sim.World) {
	if _, _, gen := w.Sealed(); gen != 0 {
		rt.from, rt.fromGen = w, gen
	}
}

// total sums one per-shard counter. Each is monotone and the shards are read
// in a fixed order, so successive totals read by one goroutine never
// decrease.
func (rt *Runtime) total(of func(*tally) *atomic.Uint64) uint64 {
	var sum uint64
	for _, sh := range rt.shards {
		sum += of(&sh.n).Load()
	}
	return sum
}

// Events returns the number of executed actions so far.
func (rt *Runtime) Events() uint64 {
	return rt.total(func(n *tally) *atomic.Uint64 { return &n.events })
}

// Sent returns the number of sent messages so far (including drops, like
// the simulator's Stats.Sent).
func (rt *Runtime) Sent() uint64 {
	return rt.total(func(n *tally) *atomic.Uint64 { return &n.sent })
}

// Dropped returns the number of sends that vanished because the target was
// gone (or exiting concurrently).
func (rt *Runtime) Dropped() uint64 {
	return rt.total(func(n *tally) *atomic.Uint64 { return &n.dropped })
}

// Gone returns the number of exited processes. The counter is a uint64 end
// to end (no truncating int conversion) so exit accounting stays exact at
// any scale.
func (rt *Runtime) Gone() uint64 { return rt.exits.Load() }

// ExitDenied returns how many exit requests were denied at commit because
// the stale cached oracle answer no longer held — on the leaver's ledger row
// or on an epoch's sealed snapshot.
func (rt *Runtime) ExitDenied() uint64 { return rt.exitDenied.Load() }

// Epochs returns how many epochs the coordinator has run, counting those
// that found nothing to settle and returned without a pause.
func (rt *Runtime) Epochs() uint64 { return rt.epochs.Load() }

// pctx implements sim.Context for a process's actions; each proc holds its
// own (proc.ctx), so running an action allocates nothing.
type pctx struct{ p *proc }

func (c *pctx) Self() ref.Ref  { return c.p.id }
func (c *pctx) Mode() sim.Mode { return c.p.mode }

// Send runs on the worker that owns c.p, inside one of its actions. It
// touches that worker's counters, its block of causal ids and — unless the
// target lives on the same shard — its outbox; the only words shared with
// another worker are the target's life and depth, and the degree ledger's
// rows for the references the message carries — none of them if the message
// is the reply that takes the delivery's debt over (owes).
func (c *pctx) Send(to ref.Ref, msg sim.Message) {
	if to.IsNil() {
		return
	}
	p := c.p
	rt := p.rt
	sh := p.sh
	sh.n.sent.Add(1)
	// Causal stamp and tracing sender, mirroring the simulator's Send: fresh
	// CID, parent = the action event being executed, clock = the sender's
	// Lamport time.
	msg = sim.WithSender(sim.StampCausal(msg, sh.nextCID(), p.curCID, p.clock), p.id)
	if target := rt.lookup(to); target != nil {
		var depth int
		var ok bool
		if p.owes(target, &msg) {
			// The delivered message's count carries the reply: nobody pops
			// it before this action's accounting is done (shard.post). A
			// refused reply leaves the debt owed.
			if depth, ok = target.enter(); ok {
				p.owed = nil
				sh.handoffs++
			}
		} else {
			depth, ok = rt.admit(target, &msg)
		}
		if ok {
			sh.post(target, &msg)
			if sh.note(sim.EvSend) {
				rt.emit(sh, sim.Event{Kind: sim.EvSend, Proc: p.id, Peer: to, Label: msg.Label, Depth: depth,
					CID: msg.CID(), Parent: msg.CausalParent(), MsgID: msg.CID(), MsgSeq: msg.Seq(), Clock: p.clock})
			}
			return
		}
	}
	sh.n.dropped.Add(1)
	if sh.note(sim.EvDrop) {
		rt.emit(sh, sim.Event{Kind: sim.EvDrop, Proc: p.id, Peer: to, Label: msg.Label,
			CID: msg.CID(), Parent: msg.CausalParent(), MsgID: msg.CID(), Clock: p.clock})
	}
	// Transport-level failure detection, same contract as the sequential
	// Context: the sender learns within its own atomic action that the
	// message was undeliverable. Safe here: the handler runs on the owning
	// worker under the action read lock.
	if h, ok := p.proto.(sim.UndeliverableHandler); ok {
		h.Undeliverable(c, to, msg)
	}
}

func (c *pctx) Exit()  { c.p.wantExit = true }
func (c *pctx) Sleep() { c.p.wantSleep = true }

// OracleSays gives the process's cached view, refreshed by the coordinator's
// epochs; the authoritative re-check happens at commit time, on a sealed
// snapshot or on the degree ledger. (Freezing here would deadlock: the
// calling action already holds its shard's action read lock.)
func (c *pctx) OracleSays() bool {
	if c.p.rt.oracle == nil {
		return false
	}
	return c.p.oracleOK.Load()
}

// deliverAction executes the delivery of msg, just popped off p's mailbox,
// under the shard's action read lock. It returns true when the action took p
// out of circulation (exit committed, or exit requested and the process
// suspended).
func (p *proc) deliverAction(sh *shard, msg *sim.Message) bool {
	rt := p.rt
	p.wantExit, p.wantSleep = false, false
	// Depth mirrors the sequential engine's EvDeliver depth: the channel
	// length right after this message's removal.
	depth := int(p.depth.Add(-1))
	// Lamport merge: the delivery happens after the send.
	if c := msg.SendClock(); c > p.clock {
		p.clock = c
	}
	p.clock++
	if p.life.Load() == 1 {
		p.life.Store(0) // processing a message wakes the process
		sh.awake.Add(1)
		rt.asleep.Add(-1)
		if sh.note(sim.EvWake) {
			rt.emit(sh, sim.Event{Kind: sim.EvWake, Proc: p.id,
				CID: sh.nextCID(), Parent: msg.CID(), Clock: p.clock})
		}
	}
	p.curCID = sh.nextCID()
	if sh.note(sim.EvDeliver) {
		rt.emit(sh, sim.Event{Kind: sim.EvDeliver, Proc: p.id, Peer: msg.From(), Label: msg.Label, Depth: depth,
			CID: p.curCID, Parent: msg.CID(), MsgID: msg.CID(), MsgSeq: msg.Seq(), Clock: p.clock})
	}
	var before []ref.Ref // the store as the action finds it: syncRefs' base
	if rt.jd != nil {
		before = p.proto.Refs()
	}
	oneRef := rt.jd != nil && len(msg.Refs) == 1
	if oneRef {
		p.owe(msg.Refs[0].Ref)
	}
	p.proto.Deliver(&p.ctx, *msg)
	if rt.jd != nil {
		// Adds precede removes (degree.go): the message's implicit edges
		// drop only now that the handler's sends and stores are counted, so
		// a reference it carried is never off the ledger while the delivery
		// is open — or they were never dropped, a reply or a store having
		// taken the one pair over.
		p.syncRefs(sh, before)
		if oneRef {
			p.payDebt()
		} else {
			rt.msgPairs(p, msg.Refs, -1)
		}
	}
	return p.finishAction(sh)
}

// timeoutAction executes one timeout on p under the shard's action read
// lock.
func (p *proc) timeoutAction(sh *shard) bool {
	p.wantExit, p.wantSleep = false, false
	p.clock++
	p.curCID = sh.nextCID()
	if sh.note(sim.EvTimeout) {
		p.rt.emit(sh, sim.Event{Kind: sim.EvTimeout, Proc: p.id, CID: p.curCID, Clock: p.clock})
	}
	var before []ref.Ref
	if p.rt.jd != nil {
		before = p.proto.Refs()
	}
	p.proto.Timeout(&p.ctx)
	if p.rt.jd != nil {
		p.syncRefs(sh, before)
	}
	return p.finishAction(sh)
}

// finishAction applies the deferred lifecycle transitions of one atomic
// action, mirroring the sequential engine's post-action block. Exit wins
// over sleep. With no oracle configured the exit commits immediately (there
// is no guard to revalidate). A leaver under a degree oracle, with nothing
// asleep, has its exit judged on its ledger row and committed here, after
// the action's own pair updates (syncRefs, payDebt): a grant takes it out of
// circulation, a denial leaves it awake. Any other request suspends the
// process and joins the coordinator's next epoch batch.
func (p *proc) finishAction(sh *shard) bool {
	rt := p.rt
	if p.wantSleep && !p.wantExit && sh.note(sim.EvSleep) {
		rt.emit(sh, sim.Event{Kind: sim.EvSleep, Proc: p.id,
			CID: sh.nextCID(), Parent: p.curCID, Clock: p.clock})
	}
	sh.n.events.Add(1)
	if p.wantExit {
		switch {
		case rt.oracle == nil:
			rt.commitExit(p)
			sh.commits++
		case rt.jd != nil && p.mode == sim.Leaving && rt.asleep.Load() == 0:
			pairs, ok := rt.retire(p, true)
			rt.verdict(p.id, ok)
			if !ok {
				rt.exitDenied.Add(1)
				return false
			}
			rt.finishExit(p, pairs)
			sh.commits++
		case p.exitPending.CompareAndSwap(false, true):
			rt.requestExit(p)
		}
		return true
	}
	if p.wantSleep {
		p.life.Store(1)
		sh.awake.Add(-1)
		rt.asleep.Add(1)
	}
	return false
}

// requestExit queues p for the coordinator's next batched validation and
// kicks an early epoch.
func (rt *Runtime) requestExit(p *proc) {
	rt.exitMu.Lock()
	rt.pendingExits = append(rt.pendingExits, p)
	rt.exitMu.Unlock()
	select {
	case rt.exitKick <- struct{}{}:
	default:
	}
}

// commitExit makes p gone without asking anybody. Callers: the owning worker
// under its action read lock (oracle-free path), or validateExitOn under a
// full pause, after the oracle granted on the sealed snapshot. No action of
// p may be running or able to start.
func (rt *Runtime) commitExit(p *proc) {
	if pairs, ok := rt.retire(p, false); ok {
		rt.finishExit(p, pairs)
	}
}

// finishExit completes the exit of p, already retired with what its ledger
// row held: shard bookkeeping updated, pairs erased, latency recorded,
// EvExit emitted. The mailbox is left as it is: admit has refused since p
// turned gone, so what waits there (or is still on its way through an outbox
// or inbox) was sent before the exit, and nobody pops it. Callers: the
// worker whose action asked for the exit, and commitExit (that worker, or a
// pauser). Either has p's shard to itself, so the exit is stamped like every
// other event of the shard: latency buffer, causal id block and cached step.
func (rt *Runtime) finishExit(p *proc, pairs []graph.Pair) {
	sh := p.sh
	rt.dropPairsOf(p, pairs)
	rt.exits.Add(1)
	sh.exitLat = append(sh.exitLat, rt.clock())
	if sh.note(sim.EvExit) {
		rt.emit(sh, sim.Event{Kind: sim.EvExit, Proc: p.id,
			CID: sh.nextCID(), Parent: p.curCID, Clock: p.clock})
	}
}

// validateExitOn validates one exit request against the sealed snapshot w
// and commits or denies it. A commit is folded back into w (MarkGone) so the
// next request validated on the same snapshot is judged against the
// post-commit state — required for oracles that are not monotone under
// departures. A denied process goes back on its shard's run queue, which
// the pause hands to the caller. Caller holds the world paused.
func (rt *Runtime) validateExitOn(w *sim.World, p *proc) bool {
	if rt.oracle != nil {
		rt.oracleMu.Lock()
		ok := rt.oracle.Evaluate(w, p.id)
		if rt.oracleHook != nil {
			rt.oracleHook(p.id, ok)
		}
		rt.oracleMu.Unlock()
		if !ok {
			p.oracleOK.Store(false) // the cache was stale; stop re-requesting
			rt.exitDenied.Add(1)
			p.exitPending.Store(false)
			p.sh.makeRunnable(p)
			p.sh.wake()
			return false
		}
		w.MarkGone(p.id)
	}
	rt.commitExit(p)
	return true
}

// settleOn validates a batch of exit requests against the sealed snapshot w,
// in order. The exit of a process that is no leaver leaves it in its leaver
// neighbors' rows (it has no row of its own to erase them from), so
// the ledger is rebuilt before the world resumes. Caller holds the world
// paused.
func (rt *Runtime) settleOn(w *sim.World, batch []*proc) {
	reseed := false
	for _, p := range batch {
		if rt.validateExitOn(w, p) && p.mode != sim.Leaving {
			reseed = true
		}
	}
	if reseed && rt.jd != nil {
		rt.reseedDegrees()
	}
}

// Start launches the shard workers plus the oracle coordinator, on the wall
// clock.
func (rt *Runtime) Start() {
	start := time.Now() //fdplint:ignore detiter Start sets the wall clock its drivers and the exit stamps read
	rt.startTime = start
	rt.clock = func() time.Duration { return time.Since(start) } //fdplint:ignore detiter Start's wall clock
	rt.seal()
	for _, sh := range rt.shards {
		rt.wg.Add(1)
		go sh.worker()
	}
	if rt.oracle != nil {
		rt.wg.Add(1)
		go rt.coordinate()
	}
}

// seal captures the initial state before anything runs: the component
// partition safety is judged against and, for a degree-judged oracle, the
// relevant-degree ledger, both from a sealed world (sealedWorld). Start and
// RunSeeded are its callers outside tests; a test that calls it to read the
// seeded state or to drive a shard by hand (no worker, no coordinator) must
// call it once and must not call Start afterwards. It reports whether it
// took the hand-over.
func (rt *Runtime) seal() (handed bool) {
	// Degree-judged oracle: maintain the ledger so exits are judged on it
	// without cloning the world. Set here, before the workers exist, and
	// every leaver judged once; admit/deliver/action-diff keep it current
	// from here on (degree.go).
	rt.jd, _ = rt.oracle.(degreeOracle)
	led, comps, handed := rt.sealedWorld()
	rt.initially = comps
	if rt.jd != nil {
		rt.ledger.CopyOf(led, len(rt.procs))
		rt.judgeAll()
		rt.orderLaps()
	}
	// Room for an exit stamp per leaver dealt to each shard, in one array:
	// finishExit appends without growing it.
	dealt := make([]int, len(rt.shards)+1)
	for _, i := range rt.leavers {
		dealt[rt.procs[i].sh.idx+1]++
	}
	lat := make([]time.Duration, len(rt.leavers))
	for k, sh := range rt.shards {
		dealt[k+1] += dealt[k]
		sh.exitLat = lat[dealt[k]:dealt[k]:dealt[k+1]]
	}
	return handed
}

// sealedWorld returns what sim.World.Sealed hands out for a sealed world
// holding the runtime's current state — the ledger, whose rows hold their
// pairs in the order sim's seed counts them, and the initial components —
// and whether that world was the hand-over: the world HandOver named while
// it is still at the seal the runtime was mirrored after, and nothing was
// Injected since. Otherwise it is the runtime frozen (freezeUnderPause) and
// sealed on the spot. Every inbox is absorbed first, so a message Injected
// before Start is counted like one Enqueued. It forgets the hand-over either
// way. Caller holds the world paused (or the workers do not exist yet).
func (rt *Runtime) sealedWorld() (led *graph.Ledger, comps [][]ref.Ref, handed bool) {
	w, gen := rt.from, rt.fromGen
	rt.from = nil
	for _, sh := range rt.shards {
		if sh.inboxFull.Load() {
			sh.absorb()
			w = nil
		}
	}
	if w != nil {
		if led, comps, now := w.Sealed(); now == gen {
			return led, comps, true
		}
	}
	w = rt.freezeUnderPause()
	w.SealInitialState()
	led, comps, _ = w.Sealed()
	return led, comps, false
}

// orderLaps puts every leaver, and every process in a leaver's ledger row,
// at the front of its shard's timeout lap, and keeps the order AddProcess
// gave (reference order, for a mirrored world) within the front and within
// the rest. The row lists exactly the processes joined to the leaver by an
// edge, stored or in flight, so the timeouts a departure waits for — the
// leaver's own, its neighbours' presents and reversals — run in the first
// rounds instead of somewhere in a lap of n/shards timeouts. The lap stays a
// permutation of the shard's processes: weak fairness holds as before
// (DESIGN.md §12, "Lap order"). Only seal calls it, and only under a degree
// oracle, the one that keeps rows.
func (rt *Runtime) orderLaps() {
	// Nothing is gone before the first action: every leaver is live.
	first := make([]bool, len(rt.procs))
	for _, i := range rt.leavers {
		first[i] = true
		for _, e := range rt.ledger.Pairs(ref.ByIndex(int(i))) {
			first[ref.Index(e.Key)] = true
		}
	}
	var rest []int32
	for _, sh := range rt.shards {
		front := sh.pids[:0]
		rest = slices.Grow(rest[:0], len(sh.pids))
		for _, i := range sh.pids {
			if first[i] {
				front = append(front, i)
			} else {
				rest = append(rest, i)
			}
		}
		sh.pids = append(front, rest...)
	}
}

// coordinate is the coordinator's goroutine: it drives epoch on the wall
// clock. The cadence adapts twice over — while actions execute it runs every
// coordMin, while the system is quiet the interval doubles up to coordMax,
// and it never sleeps less than pauseDutyFactor times the last epoch's own
// duration, so large worlds are not frozen back-to-back. A pending exit
// request kicks an early epoch so small systems keep sub-millisecond exit
// latency.
func (rt *Runtime) coordinate() {
	defer rt.wg.Done()
	interval := coordMin
	var lastEvents uint64
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for !rt.stop.Load() {
		began := rt.clock()
		rt.epoch()
		cost := rt.clock() - began
		if ev := rt.Events(); ev == lastEvents {
			interval = min(2*interval, coordMax)
		} else {
			lastEvents = ev
			interval = coordMin
		}
		rt.rest(timer, max(interval, pauseDutyFactor*cost), rt.exitKick)
	}
}

// rest waits on the wall clock for d to pass, for wake, or for Stop,
// whichever comes first, on the caller's stopped timer t, and leaves t
// stopped. It is the drivers' one wait with a deadline.
func (rt *Runtime) rest(t *time.Timer, d time.Duration, wake <-chan struct{}) {
	t.Reset(d)
	select {
	case <-t.C:
		return
	case <-wake:
	case <-rt.stopCh:
	}
	if !t.Stop() {
		<-t.C
	}
}

// epoch is one coordinator round: settle the pending exit batch and refresh
// the oracle caches, under one pause. While a degree oracle judges the rows
// (nothing asleep) the workers commit their leavers' exits themselves, and
// with nothing pending there is nothing to settle: the epoch returns at once
// and stops nobody. It reads no clock of its own: an exit it commits is
// stamped by rt.clock, the clock of whoever drives it (coordinate,
// RunSeeded).
func (rt *Runtime) epoch() {
	rt.epochs.Add(1)
	batch := rt.takePendingExits()
	if rt.jd != nil && rt.asleep.Load() == 0 && len(batch) == 0 {
		return
	}
	rt.pauseAll()
	defer rt.resumeAll()
	w := rt.freezeUnderPause()
	rt.settleOn(w, batch)
	rt.oracleMu.Lock()
	for _, i := range rt.leavers {
		if p := rt.procs[i]; p.life.Load() != 2 {
			p.oracleOK.Store(rt.oracle.Evaluate(w, p.id))
		}
	}
	rt.oracleMu.Unlock()
}

// takePendingExits claims the current exit batch. A process appears at most
// once: requestExit is guarded by the exitPending CAS and the flag is only
// cleared, on a denial, by the epoch that took the batch it is in.
func (rt *Runtime) takePendingExits() []*proc {
	rt.exitMu.Lock()
	defer rt.exitMu.Unlock()
	batch := rt.pendingExits
	rt.pendingExits = nil
	return batch
}

// Stop signals all workers to finish, waits for them, then closes the
// runtime under a pause: every message still in flight has been absorbed
// into its mailbox and stays queued there, so a post-Stop Freeze still counts
// every in-flight reference, and nothing is admitted any more.
func (rt *Runtime) Stop() {
	rt.stop.Store(true)
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	rt.wg.Wait()
	rt.pauseAll()
	rt.closed.Store(true)
	rt.resumeAll()
}

// RunUntil drives the system until predicate(frozen world) is true or the
// timeout elapses; it returns whether the predicate held. The predicate is
// evaluated on consistent snapshots every pollEvery.
func (rt *Runtime) RunUntil(pred func(*sim.World) bool, pollEvery, timeout time.Duration) bool {
	rt.Start()
	defer rt.Stop()
	return rt.WaitUntil(pred, pollEvery, timeout)
}

// seededTick is how far RunSeeded's virtual clock moves per step.
const seededTick = 20 * time.Microsecond

// RunSeeded is RunUntil on a virtual clock, on the caller's goroutine, with
// no worker and no coordinator. Each step draws from seed one runnable
// choice — a shard the wall-clock worker would iterate now (its last
// iteration was busy, its notify was raised, or its timeout round is due),
// or the epoch (coordMin after the last, or kicked by an exit request) —
// runs it, and moves the clock on by seededTick; with nothing runnable the
// clock jumps to the earliest nextTO, epoch or poll. poll, timeout and the
// exit stamps are virtual time; StartTime stays zero. The same seed on the
// same build (processes, SetShards, oracle, hooks) runs the same schedule,
// so a journal hook records the same bytes. Call it instead of Start; it
// stops the runtime before it returns.
func (rt *Runtime) RunSeeded(seed int64, pred func(*sim.World) bool, poll, timeout time.Duration) bool {
	rng := rand.New(rand.NewSource(seed))
	var now, nextPoll, nextEpoch time.Duration
	rt.clock = func() time.Duration { return now }
	rt.seal()
	defer rt.Stop()
	if poll <= 0 {
		poll = time.Millisecond
	}
	epochChoice := len(rt.shards)
	hot := make([]bool, len(rt.shards)) // the worker would iterate again at once
	var runnable []int
	for now < timeout {
		if now >= nextPoll {
			if pred(rt.Freeze()) {
				return true
			}
			nextPoll = now + poll
		}
		runnable = runnable[:0]
		wake := min(nextPoll, timeout)
		for i, sh := range rt.shards {
			select {
			case <-sh.notify:
				hot[i] = true
			default:
			}
			switch {
			case hot[i] || sh.awake.Load() > 0 && now >= sh.nextTO:
				runnable = append(runnable, i)
			case sh.awake.Load() > 0:
				wake = min(wake, sh.nextTO)
			}
		}
		if rt.oracle != nil {
			select {
			case <-rt.exitKick:
				nextEpoch = now
			default:
			}
			if now >= nextEpoch {
				runnable = append(runnable, epochChoice)
			} else {
				wake = min(wake, nextEpoch)
			}
		}
		if len(runnable) == 0 {
			now = wake
			continue
		}
		if c := runnable[rng.Intn(len(runnable))]; c == epochChoice {
			rt.epoch()
			nextEpoch = now + coordMin
		} else {
			hot[c] = rt.shards[c].iterate()
		}
		now += seededTick
	}
	return pred(rt.Freeze())
}

// WaitUntil blocks until pred holds on a consistent frozen snapshot,
// re-evaluating every poll tick, or until timeout elapses, and returns the
// final verdict (the predicate is re-checked once at the deadline). The
// effective poll interval adapts to the freeze cost: it is never shorter
// than pauseDutyFactor times the last evaluation's duration, so polling a
// large world cannot freeze it back-to-back. The runtime must be started;
// callers own Start/Stop.
func (rt *Runtime) WaitUntil(pred func(*sim.World) bool, poll, timeout time.Duration) bool {
	began := time.Now() //fdplint:ignore detiter WaitUntil polls on the wall clock
	if pred(rt.freezeLocked()) {
		return true
	}
	cost := time.Since(began) //fdplint:ignore detiter WaitUntil's duty-cycle floor
	if poll <= 0 {
		poll = time.Millisecond
	}
	effective := func() time.Duration {
		if floor := pauseDutyFactor * cost; floor > poll {
			return floor
		}
		return poll
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	tick := time.NewTimer(effective())
	defer tick.Stop()
	for {
		select {
		case <-timer.C:
			return pred(rt.freezeLocked())
		case <-tick.C:
			began = time.Now() //fdplint:ignore detiter WaitUntil polls on the wall clock
			if pred(rt.freezeLocked()) {
				return true
			}
			cost = time.Since(began) //fdplint:ignore detiter WaitUntil's duty-cycle floor
			tick.Reset(effective())
		}
	}
}

// Freeze returns a consistent sequential snapshot of the current global
// state as a sim.World, so every predicate and oracle written for the
// simulator works unchanged on the concurrent runtime. Safe to call before
// Start, while running, and after Stop (where it sees the terminal state
// including undelivered messages).
func (rt *Runtime) Freeze() *sim.World { return rt.freezeLocked() }

// freezeLocked pauses the world and builds the frozen world.
func (rt *Runtime) freezeLocked() *sim.World {
	rt.pauseAll()
	defer rt.resumeAll()
	return rt.freezeUnderPause()
}

// freezeUnderPause builds the frozen world. Caller holds the world paused
// (every shard's action lock), so process state and mailboxes are plain
// data.
func (rt *Runtime) freezeUnderPause() *sim.World {
	w := sim.NewWorld(rt.oracle)
	for _, p := range rt.procs {
		if p == nil || p.life.Load() == 2 {
			continue
		}
		if sp, ok := p.proto.(snapshotter); ok {
			w.AddProcess(p.id, p.mode, sp.Snapshot())
			continue
		}
		fp := &frozenProto{refs: p.proto.Refs()}
		if bh, ok := p.proto.(interface{ Beliefs() []sim.RefInfo }); ok {
			fp.beliefs = bh.Beliefs() // copied under the pause
		}
		w.AddProcess(p.id, p.mode, fp)
	}
	for _, p := range rt.procs {
		if p == nil || p.life.Load() == 2 {
			continue
		}
		if p.life.Load() == 1 {
			w.ForceAsleep(p.id)
		}
		for _, m := range p.mb.queue[p.mb.head:] {
			w.Enqueue(p.id, m)
		}
	}
	// Judge safety and legitimacy condition (iii) against the components
	// captured at Start time. Re-sealing the snapshot's own PG here (as an
	// earlier revision did) adopts any disconnection that already happened
	// as the new reference partition, making every safety check on frozen
	// worlds vacuously pass — the differential harness caught unsafe-oracle
	// runs "converging legitimately" that way.
	if rt.initially != nil {
		w.SetInitialComponents(rt.initially)
	}
	return w
}

// snapshotter is a protocol whose frozen stand-in is a copy of itself,
// because predicates read more of it than references and beliefs: P′'s
// wrapper, whose P state decides the target topology (churn's InTarget).
type snapshotter interface{ Snapshot() sim.Protocol }

// frozenProto is an immutable stand-in exposing the stored references and
// mode beliefs captured at snapshot time, so predicates (including the
// potential function Φ) evaluate on a consistent, race-free copy.
type frozenProto struct {
	refs    []ref.Ref
	beliefs []sim.RefInfo
}

func (f *frozenProto) Timeout(sim.Context)              {}
func (f *frozenProto) Deliver(sim.Context, sim.Message) {}
func (f *frozenProto) Refs() []ref.Ref                  { return f.refs }

// Beliefs returns the mode knowledge captured at snapshot time.
func (f *frozenProto) Beliefs() []sim.RefInfo { return f.beliefs }

// InitialComponents returns the weakly-connected components at Start time
// (or at the last Reseal).
func (rt *Runtime) InitialComponents() [][]ref.Ref { return rt.initially }

// --- Pause-the-world mutation (fault injection) ------------------------

// MutableView is the exclusive access Mutate hands its callback: every
// worker is paused (the callback runs under the full pause), so protocol
// state may be read and corrupted freely. The view must not escape the
// callback.
type MutableView struct{ rt *Runtime }

// Mutate pauses the world and runs fn with exclusive access to the live
// protocol states and mailboxes. It is how the fault injector strikes a
// RUNNING runtime: no action executes concurrently with fn, matching the
// simulator's between-actions strike semantics.
func (rt *Runtime) Mutate(fn func(v *MutableView)) {
	rt.pauseAll()
	defer rt.resumeAll()
	rt.from = nil
	fn(&MutableView{rt: rt})
	// A strike may rewrite stored references or inject messages without any
	// action running: rebuild the ledger and judge every leaver again
	// before the world resumes (the counter analogue of
	// sim.World.InvalidatePG).
	if rt.jd != nil {
		rt.reseedDegrees()
	}
}

// Live returns the references of all non-gone processes in deterministic
// order.
func (v *MutableView) Live() []ref.Ref {
	out := make([]ref.Ref, 0, len(v.rt.procs))
	for _, p := range v.rt.procs {
		if p != nil && p.life.Load() != 2 {
			out = append(out, p.id)
		}
	}
	return out
}

// Alive reports whether r names a registered, non-gone process.
func (v *MutableView) Alive(r ref.Ref) bool {
	p := v.rt.lookup(r)
	return p != nil && p.life.Load() != 2
}

// ModeOf returns the true mode of r. Panics on unknown references.
func (v *MutableView) ModeOf(r ref.Ref) sim.Mode { return v.rt.mustProc(r).mode }

// ProtocolOf returns the live protocol instance of r for in-place
// corruption. Exclusive access: the workers are paused.
func (v *MutableView) ProtocolOf(r ref.Ref) sim.Protocol { return v.rt.mustProc(r).proto }

// Enqueue injects a message into r's mailbox (spurious junk, or a displaced
// reference kept in flight). Messages to gone processes vanish, like sends.
// Injected messages get a fresh causal identity with no parent — they are
// faults, nothing in the trace caused them.
func (v *MutableView) Enqueue(to ref.Ref, msg sim.Message) bool {
	p := v.rt.lookup(to)
	if p == nil || p.life.Load() == 2 {
		return false
	}
	msg = sim.StampCausal(msg, v.rt.causal.Add(1), 0, 0)
	return v.rt.push(p, &msg)
}

// ChannelSnapshot returns a copy of r's pending (undelivered) messages in
// mailbox order. Exclusive access: the workers are paused, so the mailbox is
// plain data. Gone or unknown processes have no channel.
func (v *MutableView) ChannelSnapshot(r ref.Ref) []sim.Message {
	p := v.rt.lookup(r)
	if p == nil || p.life.Load() == 2 {
		return nil
	}
	out := make([]sim.Message, p.mb.len())
	copy(out, p.mb.queue[p.mb.head:])
	return out
}

// Reseal re-captures the weakly-connected-component partition of the
// current state as the new reference point for safety and legitimacy — the
// post-fault state is the new "arbitrary initial state" convergence is
// measured from, exactly like faults.Strike's re-seal on the simulator.
func (v *MutableView) Reseal() {
	_, v.rt.initially, _ = v.rt.sealedWorld()
}
