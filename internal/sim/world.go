package sim

import (
	"fmt"

	"fdp/internal/graph"
	"fdp/internal/ref"
)

// Oracle is a predicate O: PG × P -> {true,false} over the current process
// graph of relevant processes and the calling process (Section 1.3).
type Oracle interface {
	Name() string
	// Evaluate is called with the world (providing the relevant process
	// graph) and the calling process.
	Evaluate(w *World, u ref.Ref) bool
}

// Event is a trace event emitted by the world.
type Event struct {
	Step int
	Kind EventKind
	// Lane is a storage hint for observers that stripe their state (DESIGN.md
	// §10): the concurrent runtime stamps the emitting shard's index mod 256,
	// the sequential engine and the node pump leave 0. A hint, not an
	// identity: two goroutines may emit on one lane, so whatever an observer
	// keeps per lane stays atomic or locked. It carries no semantics and is
	// never journaled. It sits in the padding after Kind: Event stays 112
	// bytes.
	Lane    uint8
	Proc    ref.Ref
	Peer    ref.Ref // message target / source where applicable
	Label   string  // message label where applicable
	Message string  // free-form detail
	// Age is, on EvDeliver, the number of steps the message spent in the
	// channel (delivery step minus enqueue step) — the "message age at
	// delivery" series of the obs layer.
	Age int
	// Depth is the channel length after the operation: the target's queue
	// after an EvSend, the receiver's queue after an EvDeliver.
	Depth int

	// CID is the unique causal identity of this event within its engine
	// run, drawn from the engine's causal counter. Every emitted event gets
	// a fresh CID; messages share the CID of their EvSend (initial-state
	// messages get a CID without an event).
	CID uint64
	// Parent is the CID of this event's causal parent: for EvSend/EvDrop
	// the action event (timeout or delivery) being executed when the send
	// happened; for EvDeliver/EvWake the CID of the message being delivered
	// (i.e. of its send); for EvExit/EvSleep the triggering action event.
	// 0 means "no recorded parent" (a timeout, or an initial-state message).
	Parent uint64
	// MsgID is, on EvSend/EvDeliver/EvDrop, the unique causal identity of
	// the message itself (equal to the CID of its send event).
	MsgID uint64
	// MsgSeq is, on EvSend/EvDeliver, the message's arrival sequence number
	// — the identity ValidateAction re-resolves actions by, which is what
	// makes a journal's schedule re-executable.
	MsgSeq uint64
	// Clock is the executing process's Lamport clock at emission: bumped on
	// every action start, merged with the message's SendClock on delivery.
	// Events ordered by happens-before always have increasing clocks, on
	// both engines.
	Clock uint64
}

// EventKind enumerates trace event types.
type EventKind uint8

// Trace event kinds.
const (
	EvTimeout EventKind = iota
	EvDeliver
	EvSend
	EvDrop
	EvExit
	EvSleep
	EvWake
)

// NumEventKinds is the number of EventKind values, sized for dense
// per-kind counter arrays (the concurrent runtime keeps one atomic counter
// per kind).
const NumEventKinds = int(EvWake) + 1

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvTimeout:
		return "timeout"
	case EvDeliver:
		return "deliver"
	case EvSend:
		return "send"
	case EvDrop:
		return "drop"
	case EvExit:
		return "exit"
	case EvSleep:
		return "sleep"
	default:
		return "wake"
	}
}

// Stats aggregates counters over a run.
type Stats struct {
	Steps        int
	Timeouts     uint64
	Deliveries   uint64
	Sent         uint64
	Dropped      uint64 // sends to gone processes
	Exits        int
	Sleeps       uint64
	Wakes        uint64
	SentByLabel  map[string]uint64
	MaxChannel   int // high-water mark of any single channel
	TotalInQueue int // current in-flight messages (maintained incrementally)
}

// labelCount is one label's entry in the world's send tally.
type labelCount struct {
	label string
	n     uint64
}

type process struct {
	id    ref.Ref
	mode  Mode
	life  Life
	ch    []Message
	proto Protocol

	lastTimeout int // step index of last timeout execution, for fairness aging

	// clock is the process's Lamport clock: incremented at every action it
	// executes, merged (max) with the sender's clock on every delivery.
	clock uint64

	// pgRefs is the proto.Refs() handout the world's ledger was last synced
	// against: its diff base and nothing else (see pg.go), stale while the
	// ledger is dropped or dormant.
	pgRefs []ref.Ref
}

// World holds the full system state: every process, its channel, and the
// configured oracle. It executes atomic actions one at a time.
type World struct {
	procs []*process // dense, indexed by ref.Index; nil where no process was added
	// slab is where AddProcess takes its next process struct from: when it
	// runs out, a new one as long as procs is, so a world of n processes
	// makes O(log n) of them.
	slab   []process
	oracle Oracle
	stats  Stats // SentByLabel stays nil: sent is the tally Stats renders
	seq    uint64

	// sent counts sends per label, in first-send order. A run has a handful
	// of labels, so a scan of a short slice beats hashing the label per send.
	sent []labelCount

	// causal is the causal-ID counter: every emitted event and every
	// message draws a fresh CID from it. curCID is the CID of the current
	// atomic action's trigger event (the timeout or delivery), the causal
	// parent of every send the action performs.
	causal uint64
	curCID uint64

	// initialComponents is the weakly-connected-component partition of the
	// initial PG, captured by SealInitialState; legitimacy condition (iii)
	// is judged against it.
	initialComponents [][]ref.Ref

	onEvent []func(Event) // optional trace hooks, fanned out in attach order

	// onOracle, when installed, observes every OracleSays verdict — the
	// grant/denial stream the liveness watchdog (internal/obs) classifies
	// stalls from. It runs inside the asking process's atomic action and
	// must not mutate the world.
	onOracle func(ref.Ref, bool)

	// router, when installed, is consulted for sends whose target is not a
	// process of this world — the outbound hook the wire transport hangs the
	// multi-node deployment on (see SetRouter).
	router func(to ref.Ref, msg Message) bool

	// awake counts processes in the Awake state, for O(1) EnabledCount.
	awake int
	// asleep counts processes in the Asleep state; when it is zero no
	// process can be hibernating, which lets Hibernating skip the
	// reachability sweep entirely (the common case in FDP runs).
	asleep int

	// sleepRequested defers the sleep transition to the end of the current
	// atomic action, as the model requires action execution to be atomic.
	current        *process
	sleepRequested bool
	exitRequested  bool
	// ctx is the Context every action runs with, re-pointed at the acting
	// process by begin: actions are atomic and never nest, so one will do.
	ctx procCtx

	// The incrementally maintained degree ledger, nil until a query needs
	// it, and the generation-stamped hibernating set; see pg.go.
	ledger   *graph.Ledger
	gen      uint64 // bumped on every mutation that can change Hibernating
	hibGen   uint64
	hibCache ref.Set

	// seeded is gen as seed left it. sealGen is gen as SealInitialState left
	// it, and sealStep the step count then, while the seal can be handed
	// over (Sealed); sealGen is 0 when it cannot.
	seeded   uint64
	sealGen  uint64
	sealStep int

	// elsewhere is the mode, by ref.Index, of each process another node
	// hosts (HostElsewhere), Absent where none.
	elsewhere []Mode

	diff   graph.RefDiff   // pgSyncRefs' sort buffers
	uf     graph.UnionFind // reusable component partition for unite
	member []bool          // unite's member mask, by ref.Index
}

// NewWorld returns an empty world using the given oracle (nil = no oracle;
// OracleSays always false).
func NewWorld(oracle Oracle) *World {
	return &World{oracle: oracle}
}

// lookup returns the process r names, or nil if r names none of this world:
// ⊥, a reference past every process added, or an identity no Space mints
// (ref.FromWire hands the transport whatever a peer put on the wire).
func (w *World) lookup(r ref.Ref) *process {
	if i := ref.Index(r); uint(i) < uint(len(w.procs)) {
		return w.procs[i]
	}
	return nil
}

// SetOracleHook installs fn as an observer of every OracleSays verdict
// (nil clears). fn runs inside the asking process's atomic action, after
// the oracle evaluated, and must not mutate the world — the liveness
// watchdog's hook only touches atomics.
func (w *World) SetOracleHook(fn func(ref.Ref, bool)) { w.onOracle = fn }

// AddEventHook attaches one more trace callback; every installed hook
// receives every emitted event, in attach order. This is the fan-out that
// lets a world feed the viz recorder and the obs registry at once.
func (w *World) AddEventHook(fn func(Event)) {
	if fn == nil {
		return
	}
	w.onEvent = append(w.onEvent, fn)
}

func (w *World) emit(e Event) {
	if len(w.onEvent) == 0 {
		return
	}
	e.Step = w.stats.Steps
	for _, fn := range w.onEvent {
		fn(e)
	}
}

// AddProcess registers a process with the given mode and protocol instance.
// It panics on duplicate registration — scenario construction bugs should
// fail loudly.
func (w *World) AddProcess(r ref.Ref, mode Mode, proto Protocol) {
	idx := ref.Index(r)
	if idx < 0 {
		panic(fmt.Sprintf("sim: cannot add process with reference %v (⊥, or minted by no Space)", r))
	}
	if w.lookup(r) != nil {
		panic(fmt.Sprintf("sim: duplicate process %v", r))
	}
	w.awake++
	if grow := idx + 1 - len(w.procs); grow > 0 {
		w.procs = append(w.procs, make([]*process, grow)...)
	}
	if len(w.slab) == 0 {
		w.slab = make([]process, len(w.procs))
	}
	p := &w.slab[0]
	w.slab = w.slab[1:]
	*p = process{id: r, mode: mode, life: Awake, proto: proto}
	w.procs[idx] = p
	// A new node can legitimize edges other processes already hold toward
	// it; rather than scanning everyone, drop the ledger and let the next
	// query reseed (process addition is a construction-time or rare join-time
	// event, not a hot-path one).
	w.InvalidatePG()
}

// HostElsewhere records that r, a process with the given mode, is hosted by
// another node (DESIGN.md §7, §15): the world runs none of r's actions, but
// its ledger counts r's pairs as a live process's, and gives a leaver r a
// row (LeaverRow). It panics if r is a process of this world.
func (w *World) HostElsewhere(r ref.Ref, mode Mode) {
	idx := ref.Index(r)
	if idx < 0 || w.lookup(r) != nil {
		panic(fmt.Sprintf("sim: cannot host %v elsewhere (⊥, or a process of this world)", r))
	}
	for len(w.elsewhere) <= idx {
		w.elsewhere = append(w.elsewhere, Absent)
	}
	w.elsewhere[idx] = mode
	w.InvalidatePG()
}

// hostedElsewhere returns the mode of the process another node hosts as r,
// Absent if none does.
func (w *World) hostedElsewhere(r ref.Ref) Mode {
	if i := ref.Index(r); uint(i) < uint(len(w.elsewhere)) {
		return w.elsewhere[i]
	}
	return Absent
}

// Enqueue places a message directly into to's channel, used to set up
// arbitrary initial states (in-flight messages) and by the parallel runtime.
// Messages to unknown or gone processes are dropped.
func (w *World) Enqueue(to ref.Ref, msg Message) {
	p := w.lookup(to)
	if p == nil || p.life == Gone {
		w.stats.Dropped++
		return
	}
	w.seq++
	msg.seq = w.seq
	msg.enqStep = w.stats.Steps
	// Initial-state messages (and runtime-snapshot reconstructions) get a
	// fresh causal identity with no parent: nothing in the trace caused them.
	w.causal++
	msg.cid = w.causal
	msg.parent = 0
	msg.lclock = 0
	p.ch = append(p.ch, msg)
	w.stats.TotalInQueue++
	if len(p.ch) > w.stats.MaxChannel {
		w.stats.MaxChannel = len(p.ch)
	}
	w.pgMessage(p, &msg, 1)
}

// SetRouter installs the outbound transport hook. When a process sends to a
// reference that names no process of this world, the router is offered the
// fully causal-stamped message; returning true means the transport accepted
// it for (possibly asynchronous) remote delivery and the send is recorded as
// a normal EvSend. Returning false — no route, link known dead — falls
// through to the model's drop path, including the sender's synchronous
// Undeliverable callback. Worlds without a router behave exactly as before:
// sends to unknown references drop.
//
// The hook runs inside the sending process's atomic action, on the world's
// goroutine; implementations must not call back into the world.
func (w *World) SetRouter(fn func(to ref.Ref, msg Message) bool) { w.router = fn }

// Inject places a remotely sent message into to's channel, preserving the
// causal identity stamped by the sending engine: CID, parent and Lamport
// clock survive the wire, which is what lets per-node journals join into one
// causal trace. Callers guarantee cross-engine CID uniqueness (the node
// harness namespaces each engine's counter via SeedCausal); unlike Enqueue,
// Inject does not advance the local causal counter past foreign CIDs —
// foreign namespaces must not bleed into ours. Messages without a causal
// identity get a fresh local one. Returns false — without enqueueing — when
// the target is unknown or gone, so the transport can bounce the message to
// its sender.
func (w *World) Inject(to ref.Ref, msg Message) bool {
	p := w.lookup(to)
	if p == nil || p.life == Gone {
		w.stats.Dropped++
		return false
	}
	if msg.cid == 0 {
		w.causal++
		msg.cid = w.causal
	}
	w.seq++
	msg.seq = w.seq
	msg.enqStep = w.stats.Steps
	p.ch = append(p.ch, msg)
	w.stats.TotalInQueue++
	if len(p.ch) > w.stats.MaxChannel {
		w.stats.MaxChannel = len(p.ch)
	}
	w.pgMessage(p, &msg, 1)
	return true
}

// SeedCausal raises the causal-ID counter to base so every identity this
// world assigns afterwards is > base. The node harness gives each node a
// disjoint namespace (node i seeds (i+1)<<40) so CIDs stay globally unique
// across a multi-node run without coordination. No-op when the counter is
// already past base.
func (w *World) SeedCausal(base uint64) {
	if base > w.causal {
		w.causal = base
	}
}

// Bounce runs from's Undeliverable handler as its own pseudo-action: the
// asynchronous analogue of the drop path in Send, used when a remote bounce
// arrives long after the original send's atomic action finished. It emits an
// EvDrop with a fresh CID whose parent is the bounced message (the send
// already has its own record), wakes an asleep sender like any incoming
// notification would, and applies the usual post-action lifecycle. No-op if
// the sender is unknown or gone, or handles no undeliverables.
func (w *World) Bounce(from, to ref.Ref, msg Message) {
	p := w.lookup(from)
	if p == nil || p.life == Gone {
		return
	}
	h, ok := p.proto.(UndeliverableHandler)
	if !ok {
		return
	}
	w.stats.Dropped++
	ctx := w.begin(p)
	w.wake(p, &msg)
	w.causal++
	w.curCID = w.causal
	w.emit(Event{Kind: EvDrop, Proc: p.id, Peer: to, Label: msg.Label,
		CID: w.curCID, Parent: msg.cid, MsgID: msg.cid, Clock: p.clock})
	h.Undeliverable(ctx, to, msg)
	w.end(p)
}

// SealInitialState captures the weakly-connected-component partition of the
// current PG — what PG().WeaklyConnectedComponents() returns, computed by
// union-find over the stores and channels without building the graph — and
// seeds the degree ledger. Call it after scenario construction, before the
// first step.
func (w *World) SealInitialState() {
	w.syncView()
	uf := w.unite(func(*process) bool { return true })
	var live []ref.Ref
	for _, p := range w.procs {
		if p != nil && p.life != Gone {
			live = append(live, p.id)
		}
	}
	w.initialComponents = uf.Partition(live)
	w.sealGen, w.sealStep = 0, w.stats.Steps
	if w.gen == w.seeded && len(w.elsewhere) == 0 {
		w.sealGen = w.gen
	}
}

// Sealed hands out what SealInitialState computed — the degree ledger, whose
// rows hold their pairs in the order a fresh count of the stores, then the
// channels, process by process in reference order, gives them, and the
// initial components — with the seal's generation, while the world is exactly
// as the seal left it: no step, Enqueue, Inject, InvalidatePG, AddProcess,
// ForceAsleep, MarkGone, HostElsewhere or SetInitialComponents since, nothing
// hosted elsewhere, and a ledger seeded for the seal and not changed since.
// Otherwise the generation is 0. A later seal of the same world has another
// generation. The caller must not modify either result.
func (w *World) Sealed() (led *graph.Ledger, comps [][]ref.Ref, gen uint64) {
	if w.sealGen == 0 || w.sealGen != w.gen || w.sealStep != w.stats.Steps {
		return nil, nil, 0
	}
	return w.ledger, w.initialComponents, w.sealGen
}

// InitialComponents returns the sealed initial component partition.
func (w *World) InitialComponents() [][]ref.Ref { return w.initialComponents }

// SetInitialComponents installs an externally captured initial-component
// partition instead of sealing the current PG. The parallel runtime uses it
// so that frozen snapshots judge safety (Lemma 2) and legitimacy condition
// (iii) against the components captured at Start time — re-sealing a
// snapshot's own PG would silently adopt any disconnection that already
// happened as the new reference point, hiding exactly the violations the
// check exists to find. Components may mention references unknown to this
// world (e.g. processes that exited before the snapshot); consumers filter
// membership before use. The caller must not mutate comps afterwards.
func (w *World) SetInitialComponents(comps [][]ref.Ref) {
	w.initialComponents = comps
	w.sealGen = 0
}

// Refs returns the references of all registered processes, gone or not.
func (w *World) Refs() []ref.Ref {
	out := make([]ref.Ref, 0, len(w.procs))
	for _, p := range w.procs {
		if p != nil {
			out = append(out, p.id)
		}
	}
	return out
}

// Has reports whether r names a registered process of this world. Snapshot
// worlds built by the parallel runtime omit gone processes entirely, so
// predicates should check Has before ModeOf/LifeOf when handling stored
// references of unknown provenance.
func (w *World) Has(r ref.Ref) bool {
	return w.lookup(r) != nil
}

// ModeOf returns the true mode of r. Panics on unknown references.
func (w *World) ModeOf(r ref.Ref) Mode { return w.mustProc(r).mode }

// LifeOf returns the lifecycle state of r.
func (w *World) LifeOf(r ref.Ref) Life { return w.mustProc(r).life }

// ChannelLen returns the number of messages in r's channel.
func (w *World) ChannelLen(r ref.Ref) int { return len(w.mustProc(r).ch) }

// ChannelSnapshot returns a copy of r's channel contents.
func (w *World) ChannelSnapshot(r ref.Ref) []Message {
	p := w.mustProc(r)
	out := make([]Message, len(p.ch))
	copy(out, p.ch)
	return out
}

// ProtocolOf returns the protocol instance of r, for inspection by
// experiment code and the potential function.
func (w *World) ProtocolOf(r ref.Ref) Protocol { return w.mustProc(r).proto }

// ForceAsleep puts a process directly into the asleep state. It exists for
// snapshot reconstruction (the parallel runtime mirrors its live state into
// a World) and for tests that need to start from arbitrary lifecycle
// states; the protocol-driven way to sleep is Context.Sleep.
func (w *World) ForceAsleep(r ref.Ref) {
	p := w.mustProc(r)
	if p.life == Gone {
		panic(fmt.Sprintf("sim: ForceAsleep on gone process %v", r))
	}
	if p.life == Awake {
		w.awake--
		w.asleep++
	}
	p.life = Asleep
	w.gen++
}

// MarkGone removes a process from the world outside any action: the process
// becomes gone, its channel contents vanish and PG drops the node with every
// incident edge, exactly as the deferred exit in Execute — but without
// emitting an EvExit event. It exists for snapshot bookkeeping: the parallel
// runtime validates a batch of exit requests against one sealed frozen world
// and must fold each committed exit into that snapshot so later requests in
// the same batch are judged against the post-commit state (arbitrary oracles
// are not monotone under departures). Idempotent on gone processes.
func (w *World) MarkGone(r ref.Ref) {
	p := w.mustProc(r)
	if p.life == Gone {
		return
	}
	w.retire(p)
}

// Stats returns a copy of the run counters.
func (w *World) Stats() Stats {
	s := w.stats
	s.SentByLabel = make(map[string]uint64, len(w.sent))
	for _, lc := range w.sent {
		s.SentByLabel[lc.label] = lc.n
	}
	return s
}

// Steps returns the number of atomic actions executed so far.
func (w *World) Steps() int { return w.stats.Steps }

// CausalIDs returns how many causal identities (events and messages) the
// world has assigned so far — the high-water mark of Event.CID.
func (w *World) CausalIDs() uint64 { return w.causal }

func (w *World) mustProc(r ref.Ref) *process {
	p := w.lookup(r)
	if p == nil {
		panic(fmt.Sprintf("sim: unknown process %v", r))
	}
	return p
}

// --- Action enumeration and execution ---------------------------------

// Action identifies one enabled action: a timeout of an awake process or the
// delivery of one channel message to an awake or asleep process.
type Action struct {
	Proc      ref.Ref
	IsTimeout bool
	MsgIndex  int    // valid when !IsTimeout
	MsgSeq    uint64 // stable identity of the message (for debugging)
	MsgStep   int    // step at which the message was enqueued, for aging
}

// EnabledCount returns the number of enabled actions without materializing
// them: one timeout per awake process plus every queued message of non-gone
// processes.
func (w *World) EnabledCount() int {
	return w.awake + w.stats.TotalInQueue
}

// PickEnabled returns the k-th enabled action in the canonical order used
// by EnabledActions, without allocating the full list. k must be in
// [0, EnabledCount()).
func (w *World) PickEnabled(k int) Action {
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		if p.life == Awake {
			if k == 0 {
				return Action{Proc: p.id, IsTimeout: true}
			}
			k--
		}
		if k < len(p.ch) {
			return Action{Proc: p.id, MsgIndex: k, MsgSeq: p.ch[k].seq, MsgStep: p.ch[k].enqStep}
		}
		k -= len(p.ch)
	}
	panic("sim: PickEnabled index out of range")
}

// ValidateAction re-checks that a previously enumerated action is still
// enabled, re-resolving a message's index by its sequence number (see
// resolve: the search starts at a.MsgIndex). It returns false for actions
// that became stale (process gone or asleep, message already delivered).
func (w *World) ValidateAction(a *Action) bool {
	p := w.lookup(a.Proc)
	if p == nil || p.life == Gone {
		return false
	}
	if a.IsTimeout {
		return p.life == Awake
	}
	return p.resolve(a)
}

// resolve finds a's message in p's channel by its sequence number and sets
// a.MsgIndex to where it is now. A queued message only ever moves left — a
// delivery shifts what follows it, Enqueue, Inject and Send append — so the
// index it was seen at bounds where it can be, and the search runs down from
// there. An action whose index was never seen (a journal's schedule) carries
// one past any channel's end.
func (p *process) resolve(a *Action) bool {
	for i := min(a.MsgIndex, len(p.ch)-1); i >= 0; i-- {
		if p.ch[i].seq == a.MsgSeq {
			a.MsgIndex = i
			return true
		}
	}
	return false
}

// EnabledActions lists every action enabled in the current state, in
// deterministic order.
func (w *World) EnabledActions() []Action {
	var out []Action
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		if p.life == Awake {
			out = append(out, Action{Proc: p.id, IsTimeout: true})
		}
		for i, m := range p.ch {
			out = append(out, Action{Proc: p.id, MsgIndex: i, MsgSeq: m.seq, MsgStep: m.enqStep})
		}
	}
	return out
}

// Quiescent reports whether no action is enabled: every process is gone or
// asleep and all channels of non-gone processes are empty.
func (w *World) Quiescent() bool {
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		if p.life == Awake || len(p.ch) > 0 {
			return false
		}
	}
	return true
}

// Execute runs one enabled action atomically. It panics if the action is not
// enabled (scheduler bug).
func (w *World) Execute(a Action) {
	p := w.mustProc(a.Proc)
	if p.life == Gone {
		panic(fmt.Sprintf("sim: action on gone process %v", a.Proc))
	}
	ctx := w.begin(p)

	if a.IsTimeout {
		if p.life != Awake {
			panic(fmt.Sprintf("sim: timeout on non-awake process %v", a.Proc))
		}
		w.stats.Timeouts++
		p.lastTimeout = w.stats.Steps
		p.clock++
		w.causal++
		w.curCID = w.causal
		w.emit(Event{Kind: EvTimeout, Proc: p.id, CID: w.curCID, Clock: p.clock})
		p.proto.Timeout(ctx)
	} else {
		if a.MsgIndex < 0 || a.MsgIndex >= len(p.ch) {
			panic(fmt.Sprintf("sim: bad message index %d for %v", a.MsgIndex, a.Proc))
		}
		msg := p.ch[a.MsgIndex]
		// Remove the message from the channel (processed exactly once).
		p.ch = append(p.ch[:a.MsgIndex], p.ch[a.MsgIndex+1:]...)
		w.stats.TotalInQueue--
		w.pgMessage(p, &msg, -1)
		w.wake(p, &msg)
		w.stats.Deliveries++
		w.causal++
		w.curCID = w.causal
		w.emit(Event{Kind: EvDeliver, Proc: p.id, Peer: msg.from, Label: msg.Label,
			Age: w.stats.Steps - msg.enqStep, Depth: len(p.ch),
			CID: w.curCID, Parent: msg.cid, MsgID: msg.cid, MsgSeq: msg.seq, Clock: p.clock})
		p.proto.Deliver(ctx, msg)
	}
	w.end(p)
}

// wake merges the Lamport clock of msg, which p is about to handle, into p's
// and moves p from asleep to awake if it sleeps.
func (w *World) wake(p *process, msg *Message) {
	// The handling happens after the send.
	if msg.lclock > p.clock {
		p.clock = msg.lclock
	}
	p.clock++
	if p.life != Asleep {
		return
	}
	p.life = Awake
	w.awake++
	w.asleep--
	w.stats.Wakes++
	w.gen++
	w.causal++
	w.emit(Event{Kind: EvWake, Proc: p.id, CID: w.causal, Parent: msg.cid, Clock: p.clock})
}

// end closes p's atomic action, applying the lifecycle transition it
// requested.
func (w *World) end(p *process) {
	if w.exitRequested {
		w.retire(p)
		w.causal++
		w.emit(Event{Kind: EvExit, Proc: p.id, CID: w.causal, Parent: w.curCID, Clock: p.clock})
	} else {
		// Only the acting process's stored refs can change during an atomic
		// action: fold its explicit-edge delta into the ledger.
		w.pgSyncRefs(p)
		if w.sleepRequested {
			if p.life == Awake {
				w.awake--
				w.asleep++
			}
			p.life = Asleep
			w.stats.Sleeps++
			w.gen++
			w.causal++
			w.emit(Event{Kind: EvSleep, Proc: p.id, CID: w.causal, Parent: w.curCID, Clock: p.clock})
		}
	}
	w.current = nil
}

// retire makes the live p gone. A gone process's channel contents can never
// be processed and are no longer part of PG (the process is removed with its
// edges).
func (w *World) retire(p *process) {
	if p.life == Awake {
		w.awake--
	} else {
		w.asleep--
	}
	p.life = Gone
	w.stats.Exits++
	w.stats.TotalInQueue -= len(p.ch)
	p.ch = nil
	w.pgExit(p)
}

type procCtx struct {
	w *World
	p *process
}

// begin opens p's next atomic action and returns the context it runs with.
func (w *World) begin(p *process) *procCtx {
	w.stats.Steps++
	w.current = p
	w.sleepRequested = false
	w.exitRequested = false
	w.ctx = procCtx{w: w, p: p}
	return &w.ctx
}

func (c *procCtx) Self() ref.Ref { return c.p.id }
func (c *procCtx) Mode() Mode    { return c.p.mode }

func (c *procCtx) Send(to ref.Ref, msg Message) {
	if to.IsNil() {
		return
	}
	msg.from = c.p.id
	// Causal stamp: the message's identity is a fresh CID, its parent the
	// action event being executed, its clock the sender's Lamport time.
	// Stamped before the drop check so even vanished sends are identified
	// in the trace.
	c.w.causal++
	msg.cid = c.w.causal
	msg.parent = c.w.curCID
	msg.lclock = c.p.clock
	target := c.w.lookup(to)
	c.w.stats.Sent++
	c.w.countSent(msg.Label)
	if target == nil && c.w.router != nil && c.w.router(to, msg) {
		// The transport accepted the message for remote delivery. Depth and
		// MsgSeq are unknowable here (the receiving engine assigns them); the
		// causal fields are what cross-node joins align on.
		c.w.emit(Event{Kind: EvSend, Proc: c.p.id, Peer: to, Label: msg.Label,
			CID: msg.cid, Parent: msg.parent, MsgID: msg.cid, Clock: c.p.clock})
		return
	}
	if target == nil || target.life == Gone {
		c.w.stats.Dropped++
		c.w.emit(Event{Kind: EvDrop, Proc: c.p.id, Peer: to, Label: msg.Label,
			CID: msg.cid, Parent: msg.parent, MsgID: msg.cid, Clock: c.p.clock})
		if h, ok := c.p.proto.(UndeliverableHandler); ok {
			h.Undeliverable(c, to, msg)
		}
		return
	}
	c.w.seq++
	msg.seq = c.w.seq
	msg.enqStep = c.w.stats.Steps
	target.ch = append(target.ch, msg)
	c.w.stats.TotalInQueue++
	if len(target.ch) > c.w.stats.MaxChannel {
		c.w.stats.MaxChannel = len(target.ch)
	}
	c.w.pgMessage(target, &msg, 1)
	c.w.emit(Event{Kind: EvSend, Proc: c.p.id, Peer: to, Label: msg.Label, Depth: len(target.ch),
		CID: msg.cid, Parent: msg.parent, MsgID: msg.cid, MsgSeq: msg.seq, Clock: c.p.clock})
}

// countSent adds one send of label to the per-label tally.
func (w *World) countSent(label string) {
	for i := range w.sent {
		if w.sent[i].label == label {
			w.sent[i].n++
			return
		}
	}
	w.sent = append(w.sent, labelCount{label: label, n: 1})
}

func (c *procCtx) Exit() { c.w.exitRequested = true }

func (c *procCtx) Sleep() { c.w.sleepRequested = true }

func (c *procCtx) OracleSays() bool {
	if c.w.oracle == nil {
		return false
	}
	ok := c.w.oracle.Evaluate(c.w, c.p.id)
	if c.w.onOracle != nil {
		c.w.onOracle(c.p.id, ok)
	}
	return ok
}
