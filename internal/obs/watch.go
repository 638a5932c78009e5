package obs

import (
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// Engine is what both engines, sim.World and parallel.Runtime, offer an
// observer.
type Engine interface {
	AddEventHook(func(sim.Event))
	SetOracleHook(func(ref.Ref, bool))
}

// StallReport is the evidence captured at a run's FIRST stall verdict: the
// classification plus a flight-recorder snapshot, rendered the way a
// finished run's artifacts are. A Complete snapshot of the sequential
// engine is a replayable journal prefix (trace.VerifyReplay accepts it once
// Header names the scenario); the runtime's and a node's are one real
// interleaving, joinable and diffable but not replayable.
type StallReport struct {
	// Verdict is the watchdog classification and its window evidence.
	Verdict StallVerdict
	// Header frames Flight as a journal fragment for trace.WriteJournal /
	// fdpreplay.
	Header trace.Header
	// Flight is the flight-recorder snapshot, oldest event first.
	Flight []trace.Record
	// Complete reports the ring never wrapped: Flight is the entire event
	// stream from the first event.
	Complete bool
	// Spans renders the per-leaver departure span trees of the snapshot —
	// the causal story of how far each stuck departure got.
	Spans string
}

// WatchConfig describes one Watch.
type WatchConfig struct {
	// Leavers are the departures the watch tracks.
	Leavers []ref.Ref
	// FlightK bounds the flight ring (0 = trace.DefaultFlightCap).
	FlightK int
	// Every is the watchdog window in the driver's count (see Tick); 0
	// disables the watchdog.
	Every uint64
	// Metrics, if non-nil, receives the Progress series under Labels.
	Metrics *Registry
	Labels  string
	// Header frames the stall report's flight records.
	Header trace.Header
}

// Watch is the liveness watch of one run (DESIGN.md §16): the flight ring,
// the Progress tracker, the watchdog that classifies its windows, and the
// first stall report. The sequential engine, the seeded runtime and the mesh
// node each drive one. The hooks it installs are safe for concurrent use;
// Tick and Stall belong to one driver goroutine.
type Watch struct {
	// Flight is the always-on flight ring.
	Flight *trace.Flight
	// prog is nil when the watch neither classifies windows nor exposes
	// series.
	prog *Progress

	every, next uint64
	header      trace.Header
	leavers     []ref.Ref
	stall       *StallReport
}

// NewWatch attaches a watch to e: the flight ring always, the Progress
// tracker when the watchdog is on or Metrics is set.
func NewWatch(e Engine, c WatchConfig) *Watch {
	w := &Watch{Flight: trace.NewFlight(c.FlightK), every: c.Every, next: c.Every,
		header: c.Header, leavers: c.Leavers}
	e.AddEventHook(w.Flight.Record)
	if c.Every > 0 || c.Metrics != nil {
		w.prog = NewProgress(c.Metrics, c.Labels, c.Leavers)
		e.AddEventHook(w.prog.NoteEvent)
		e.SetOracleHook(w.prog.NoteOracle)
	}
	return w
}

// Tick advances the watch to at, a monotone count the driver supplies from
// 0 — sequential steps, runtime events, or nanoseconds of pump clock — and
// runs one Progress.Check each time at reaches the end of a window, with
// step as the verdict's logical time and pending() as its queued-message
// count. pending is queried only there (Stats() copies a map, so per-step
// calls would break the zero-alloc steady state); between windows Tick is
// two compares and returns the zero verdict. first is the stall report when
// this check caught the run's first stall, nil otherwise: later verdicts
// only keep the fdp_stall_* series current.
func (w *Watch) Tick(at, step uint64, pending func() int) (v StallVerdict, first *StallReport) {
	if w.every == 0 || at < w.next {
		return v, nil
	}
	w.next = at + w.every
	v, stalled := w.prog.Check(step, pending())
	if !stalled || w.stall != nil {
		return v, nil
	}
	recs, complete := w.Flight.Snapshot()
	// A stuck departure has no exit record to be discovered by: the span
	// trees are seeded with the leavers' names.
	names := make([]string, len(w.leavers))
	for i, l := range w.leavers {
		names[i] = l.String()
	}
	w.stall = &StallReport{Verdict: v, Header: w.header, Flight: recs, Complete: complete,
		Spans: trace.SpanTrees(trace.BuildSpansFor(recs, names))}
	return v, w.stall
}

// Stall returns the first stall report, nil if the watchdog never fired.
func (w *Watch) Stall() *StallReport { return w.stall }
