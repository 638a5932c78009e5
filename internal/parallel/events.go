package parallel

import (
	"slices"
	"time"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// This file is the runtime's side of the one observer plane both engines
// share (DESIGN.md §10): the same sim.Event kinds the sequential engine
// emits, handed to the same hook-shaped consumers (obs bridge, progress
// tracker, trace.Flight, journal writer), with no global trace lock.
//
//   - Per-kind counts are always on: one atomic counter per EventKind,
//     maintained by every action. They are what the differential
//     event-parity test compares between engines.
//   - Event hooks (AddEventHook, World.AddEventHook's contract) receive
//     every event synchronously from the emitting goroutine — a shard
//     worker under its action read lock, or the coordinator for batched
//     exit events, with or without a pause. Hooks therefore run
//     concurrently with each other and must be safe for concurrent use. The
//     runtime keeps no ring of its own: a consumer that wants the last K
//     events installs trace.Flight.Record.
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

// record is the runtime's emit: per-kind counter, then the hook fan-out.
// With no hook installed it is one counter add and one length check. The
// caller is the only goroutine that may act on p: its shard's worker under
// the action read lock, a pauser, or the coordinator committing the exit of
// the suspended p.
func (p *proc) record(e sim.Event) {
	rt := p.rt
	if int(e.Kind) < len(rt.kindCounts) {
		rt.kindCounts[e.Kind].Add(1)
	}
	if len(rt.hooks) == 0 {
		return
	}
	e.Step = int(rt.events.Load())
	for _, fn := range rt.hooks {
		fn(e)
	}
}

// EventKindCounts returns the number of events emitted so far per kind.
// The counts are always maintained (no hook needed) and are the series the
// differential event-parity test compares against the sequential engine's
// event stream.
func (rt *Runtime) EventKindCounts() map[sim.EventKind]uint64 {
	out := make(map[sim.EventKind]uint64, sim.NumEventKinds)
	for k := range rt.kindCounts {
		if n := rt.kindCounts[k].Load(); n > 0 {
			out[sim.EventKind(k)] = n
		}
	}
	return out
}

// CausalIDs returns how many causal identities (events and messages) the
// runtime has assigned so far — the high-water mark of Event.CID. Always
// maintained; safe to read concurrently.
func (rt *Runtime) CausalIDs() uint64 { return rt.causal.Load() }

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
// process, a consistent snapshot of mailbox depth.
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
