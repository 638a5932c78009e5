package parallel

import (
	"slices"
	"sync/atomic"
	"time"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// This file is the runtime's side of the one observer plane both engines
// share (DESIGN.md §10): the same sim.Event kinds the sequential engine
// emits, handed to the same hook-shaped consumers (obs bridge, progress
// tracker, trace.Flight, journal writer), with no global trace lock and no
// cache line every emitter writes.
//
//   - Per-kind counts are always on: one atomic counter per EventKind and
//     shard, bumped by the shard's worker and summed at read. They are what
//     the differential event-parity test compares between engines.
//   - Event hooks (AddEventHook, World.AddEventHook's contract) receive
//     every event synchronously from the emitting goroutine — a shard
//     worker under its action read lock, or a pauser committing an exit.
//     Hooks therefore run concurrently with each other and must be safe for
//     concurrent use.
//     The runtime keeps no ring of its own: a consumer that wants the last K
//     events installs trace.Flight.Record. With no hook installed no
//     sim.Event is built at all (shard.note) and no step is summed.
//
// Event.Lane on runtime events is the index (mod 256) of the shard that owns
// the process the event is about; a process stays on the shard AddProcess
// dealt it, so all its events carry one lane. It is a hint for observers that
// stripe their state — one flight ring, one cell of progress counts per lane
// — so that two workers' events meet on no line. Emissions on one lane never
// overlap: the owning worker emits, or a pauser while that worker is
// stopped, and both stamp from the shard's causal id block, so a lane's ids
// ascend in emission order. A lane is still read (snapshots, sums) while it
// is written, so striped state stays atomic or locked, just uncontended.
//
// Event.Step on runtime events is the executed-action count as the emitter
// knew it — the closest concurrent analogue of the simulator's step counter.
// Every event is stamped with its shard's own count plus a sum of the other
// shards' counts the worker refreshes once per iteration (sumOthers).
// It is a cached sum, not a clock: up to one worker iteration behind the true
// total, never ahead of it, and non-decreasing per process (sumOthers says
// why) — good enough to order a dump for post-mortem reading.

// AddEventHook attaches one more synchronous observer; every installed hook
// receives every emitted event, in attach order. fn runs on the emitting
// goroutine and MUST be safe for concurrent use (obs registry metrics,
// trace.Flight and the journal writers are). nil is ignored. Must be called
// before Start.
func (rt *Runtime) AddEventHook(fn func(sim.Event)) {
	if fn == nil {
		return
	}
	rt.hooks = append(rt.hooks, fn)
}

// SetEventSink replaces ALL installed hooks with fn (nil clears). Use
// AddEventHook to attach a consumer without displacing the ones already
// installed. Must be called before Start.
func (rt *Runtime) SetEventSink(fn func(sim.Event)) {
	rt.hooks = nil
	rt.AddEventHook(fn)
}

// SetOracleHook installs fn as an observer of every exit-validation
// verdict (granted or denied), from both the frozen-snapshot epoch path
// and the degree path. fn runs on the goroutine that judged — a shard
// worker, possibly inside the leaver's own action, or the coordinator at a
// pause —
// one call at a time (under the lock that serializes oracle calls), so it
// may count in plain fields; it must not pause, block on or call back into
// the runtime, and must be safe for concurrent use with the event hooks.
// Must be called before Start; nil clears.
func (rt *Runtime) SetOracleHook(fn func(ref.Ref, bool)) { rt.oracleHook = fn }

// note counts one event of kind k on the shard and reports whether anybody
// listens: the caller builds the sim.Event, and draws the causal id of an
// event that is not an action, only then. The caller is the only goroutine
// that may act on the process the event is about: its shard's worker under
// the action read lock, or a pauser.
func (sh *shard) note(k sim.EventKind) bool {
	sh.n.kinds[k].Add(1)
	return len(sh.rt.hooks) > 0
}

// sumOthers reads every other shard's action count, for emit to add to the
// shard's own. The worker calls it at the top of every iteration, and only
// while a hook is installed: a stamped event then reads no counter another
// worker writes. Every count is monotone, so the stamps of one worker — and
// with them the stamps of each process it owns — never decrease.
func (sh *shard) sumOthers() {
	var sum uint64
	for _, o := range sh.rt.shards {
		if o != sh {
			sum += o.n.events.Load()
		}
	}
	sh.others = sum
}

// emit hands e to every hook, stamped with sh's lane and with sh's view of
// the executed-action count: its own count plus the cached sum of the others.
// Caller is sh's worker under its action read lock, or a pauser.
func (rt *Runtime) emit(sh *shard, e sim.Event) {
	e.Step = int(sh.n.events.Load() + sh.others)
	e.Lane = uint8(sh.idx)
	for _, fn := range rt.hooks {
		fn(e)
	}
}

// KindCount returns the number of events of kind k emitted so far.
func (rt *Runtime) KindCount(k sim.EventKind) uint64 {
	if int(k) >= sim.NumEventKinds {
		return 0
	}
	return rt.total(func(n *tally) *atomic.Uint64 { return &n.kinds[k] })
}

// CausalIDs returns how many causal identities (events and messages) the
// runtime has reserved so far: workers draw them in blocks, so this is an
// upper bound of every Event.CID handed out, not the count of those in use.
// Always maintained; safe to read concurrently.
func (rt *Runtime) CausalIDs() uint64 { return rt.causal.Load() }

// ShardTraffic is one shard's cross-shard mail so far: the batches its worker
// published to other shards' inboxes, the messages in them (their ratio is
// the mean batch), and how often it emptied its own inbox. PairHandoffs counts
// the deliveries whose ledger pair a reply or a store of its worker took over
// (degree.go), each two locked pair updates not made. ExitCommits counts the
// exits the worker committed in the action that asked for them (those
// settled at an epoch's pause are not in it). The worker adds both once per
// iteration, so they are exact at every pause.
type ShardTraffic struct {
	OutboxFlushes, OutboxMessages, InboxAbsorbs, PairHandoffs, ExitCommits uint64
}

// ShardTraffic reads shard i's counters; safe to call concurrently.
func (rt *Runtime) ShardTraffic(i int) ShardTraffic {
	n := &rt.shards[i].n
	return ShardTraffic{
		OutboxFlushes:  n.outboxFlushes.Load(),
		OutboxMessages: n.outboxMessages.Load(),
		InboxAbsorbs:   n.inboxAbsorbs.Load(),
		PairHandoffs:   n.pairHandoffs.Load(),
		ExitCommits:    n.exitCommits.Load(),
	}
}

// StartTime returns when Start was called (zero before Start, and for a
// RunSeeded run). Start stamps it before it seals the initial state and
// launches the goroutines, so every exit latency under Start includes the
// seal.
func (rt *Runtime) StartTime() time.Time { return rt.startTime }

// Clock reads the runtime's clock, the one every exit is stamped with:
// wall-clock time since Start, virtual time under RunSeeded, zero before
// either. Safe to call from an event hook.
func (rt *Runtime) Clock() time.Duration { return rt.clock() }

// ExitLatencies returns, for each committed exit in commit order, the
// runtime's clock when it committed: wall-clock time since Start, or virtual
// time under RunSeeded — the runtime's time-to-exit-per-leaver series.
// Commits append to their shard's buffer, which the worker owns, so the
// merge reads them at a pause; it sorts the combined series, which recovers
// commit order because every latency is read from the same monotonic clock.
func (rt *Runtime) ExitLatencies() []time.Duration {
	rt.pauseAll()
	defer rt.resumeAll()
	var out []time.Duration
	for _, sh := range rt.shards {
		out = append(out, sh.exitLat...)
	}
	slices.Sort(out)
	return out
}

// MailboxDepths returns the current queue length of every non-gone
// process, a consistent snapshot of mailbox depth: the pause has moved every
// message in flight into its mailbox, so each length is the process's depth
// counter.
func (rt *Runtime) MailboxDepths() []int {
	rt.pauseAll()
	defer rt.resumeAll()
	out := make([]int, 0, len(rt.procs))
	for _, p := range rt.procs {
		if p == nil || p.life.Load() == 2 {
			continue
		}
		out = append(out, p.mb.len())
	}
	return out
}
