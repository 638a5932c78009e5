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
// tracker, trace.Flight, journal writer), with no global trace lock.
//
//   - Per-kind counts are always on: one atomic counter per EventKind and
//     shard, bumped by the shard's worker and summed at read. They are what
//     the differential event-parity test compares between engines.
//   - Event hooks (AddEventHook, World.AddEventHook's contract) receive
//     every event synchronously from the emitting goroutine — a shard
//     worker under its action read lock, or the coordinator for batched
//     exit events, with or without a pause. Hooks therefore run
//     concurrently with each other and must be safe for concurrent use. The
//     runtime keeps no ring of its own: a consumer that wants the last K
//     events installs trace.Flight.Record. With no hook installed no
//     sim.Event is built at all (shard.note).
//
// Event.Step on runtime events is the global executed-action count at
// emission time — the closest concurrent analogue of the simulator's step
// counter: non-decreasing per process, good enough to order a dump for
// post-mortem reading.

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
// and the incremental-degree fast path. fn runs on the coordinator
// goroutine and must be safe for concurrent use with the event hooks (the
// liveness watchdog's hook only touches atomics). Must be called before
// Start; nil clears.
func (rt *Runtime) SetOracleHook(fn func(ref.Ref, bool)) { rt.oracleHook = fn }

// note counts one event of kind k on the shard and reports whether anybody
// listens: the caller builds the sim.Event, and draws the causal id of an
// event that is not an action, only then. The caller is the only goroutine
// that may act on the process the event is about: its shard's worker under
// the action read lock, a pauser, or the coordinator committing the exit of
// a suspended process.
func (sh *shard) note(k sim.EventKind) bool {
	sh.n.kinds[k].Add(1)
	return len(sh.rt.hooks) > 0
}

// emit stamps e with the executed-action count and hands it to every hook.
func (rt *Runtime) emit(e sim.Event) {
	e.Step = int(rt.Events())
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

// EventKindCounts returns the number of events emitted so far per kind.
// The counts are always maintained (no hook needed) and are the series the
// differential event-parity test compares against the sequential engine's
// event stream.
func (rt *Runtime) EventKindCounts() map[sim.EventKind]uint64 {
	out := make(map[sim.EventKind]uint64, sim.NumEventKinds)
	for k := 0; k < sim.NumEventKinds; k++ {
		if n := rt.KindCount(sim.EventKind(k)); n > 0 {
			out[sim.EventKind(k)] = n
		}
	}
	return out
}

// CausalIDs returns how many causal identities (events and messages) the
// runtime has reserved so far: workers draw them in blocks, so this is an
// upper bound of every Event.CID handed out, not the count of those in use.
// Always maintained; safe to read concurrently.
func (rt *Runtime) CausalIDs() uint64 { return rt.causal.Load() }

// ShardTraffic is one shard's cross-shard mail so far: the batches its worker
// published to other shards' inboxes, the messages in them (their ratio is
// the mean batch), and how often it emptied its own inbox.
type ShardTraffic struct {
	OutboxFlushes, OutboxMessages, InboxAbsorbs uint64
}

// ShardTraffic reads shard i's mail counters; safe to call concurrently.
func (rt *Runtime) ShardTraffic(i int) ShardTraffic {
	n := &rt.shards[i].n
	return ShardTraffic{
		OutboxFlushes:  n.outboxFlushes.Load(),
		OutboxMessages: n.outboxMessages.Load(),
		InboxAbsorbs:   n.inboxAbsorbs.Load(),
	}
}

// StartTime returns when Start launched the goroutines (zero before
// Start). Exit latencies are measured from it.
func (rt *Runtime) StartTime() time.Time { return rt.startTime }

// ExitLatencies returns the wall-clock time from Start to each committed
// exit, in commit order — the runtime's time-to-exit-per-leaver series.
// Commits append to per-shard buffers; the merge sorts the combined series,
// which recovers commit order because every latency is measured from the
// same monotonic start time.
func (rt *Runtime) ExitLatencies() []time.Duration {
	var out []time.Duration
	for _, sh := range rt.shards {
		sh.latMu.Lock()
		out = append(out, sh.exitLat...)
		sh.latMu.Unlock()
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
	out := make([]int, 0, len(rt.byPid))
	for _, p := range rt.procs {
		if p == nil || p.life.Load() == 2 {
			continue
		}
		out = append(out, p.mb.len())
	}
	return out
}
