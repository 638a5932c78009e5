package obs

import (
	"fmt"
	"sync/atomic"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Liveness observability (DESIGN.md §16). The FDP/FSP guarantees are
// liveness properties — Lemma 3 promises every leaver eventually settles —
// so a run that is *stuck* looks, from the outside, exactly like a run
// that is merely slow. Progress turns the event stream and the oracle's
// grant/denial stream into per-leaver progress accounting, and a Watch
// (watch.go) periodically classifies a window with remaining leavers and no
// settles into one of three stall kinds:
//
//   - livelock: actions and messages keep flowing but the oracle grants
//     nothing — the protocol is spinning (the shape of four of the five
//     bugs the fuzzer found);
//   - starvation: messages are queued but none get delivered — a scheduler
//     or shard/queue is not draining;
//   - quiescent: nothing executes at all while leavers remain — with an
//     empty queue this is a wedged engine or a Lemma 2 violation in the
//     making (a leaver nothing will ever talk to again).
//
// Everything on the hot path (NoteEvent, NoteOracle) is lock-free and
// zero-alloc: per-leaver slots sit in a slice indexed by ref.Index that is
// read-only after New, the per-event activity counts in one cache line per
// Event.Lane, and every update is an atomic on pre-allocated state —
// TestProgressNoteAllocs pins 0 allocs/op. Classification (Check) runs on
// one driver goroutine and is the only place window deltas are kept.

// Canonical liveness series names (suffixed with the instance labels the
// Progress was created with, e.g. engine="sim" or node="0").
const (
	// MetricProgressLeavers is the live count of unsettled leavers.
	MetricProgressLeavers = "fdp_progress_leavers_remaining"
	// MetricProgressGrants counts oracle grants observed at exit-guard
	// evaluation sites.
	MetricProgressGrants = "fdp_progress_grants_total"
	// MetricProgressDenials counts oracle denials at the same sites.
	MetricProgressDenials = "fdp_progress_denials_total"
	// MetricProgressHops counts forward progress hops: sends performed by
	// a still-unsettled leaver (delegations, introductions — the visible
	// work of a departure in flight).
	MetricProgressHops = "fdp_progress_forward_hops_total"
	// MetricProgressDenialStreak is the largest current run of consecutive
	// denials any single leaver has accumulated since its last grant.
	MetricProgressDenialStreak = "fdp_progress_denial_streak_max"
	// MetricStallState is the current stall classification (StallKind as
	// an integer; 0 = progressing).
	MetricStallState = "fdp_stall_state"
	// MetricStallVerdicts counts emitted stall verdicts per kind label.
	MetricStallVerdicts = "fdp_stall_verdicts_total"
)

// StallKind classifies why a run with remaining leavers stopped settling.
type StallKind int

const (
	// StallNone means the window saw progress (or no leavers remain).
	StallNone StallKind = iota
	// StallLivelock: actions and messages flowing, zero grants, zero
	// settles.
	StallLivelock
	// StallStarvation: messages are queued but none were delivered.
	StallStarvation
	// StallQuiescent: nothing executed at all while leavers remain.
	StallQuiescent
)

// String names the kind for labels and verdict dumps.
func (k StallKind) String() string {
	switch k {
	case StallNone:
		return "none"
	case StallLivelock:
		return "livelock"
	case StallStarvation:
		return "starvation"
	case StallQuiescent:
		return "quiescent"
	default:
		return "unknown"
	}
}

// StallVerdict is one watchdog classification: the kind plus the window
// evidence it was judged on.
type StallVerdict struct {
	Kind StallKind `json:"kind"`
	// LeaversRemaining is the unsettled-leaver count at the check.
	LeaversRemaining int `json:"leavers_remaining"`
	// Pending is the queued-message count supplied by the driver.
	Pending int `json:"pending"`
	// Window deltas: what happened between the previous check and this one.
	WindowTimeouts  uint64 `json:"window_timeouts"`
	WindowDelivers  uint64 `json:"window_delivers"`
	WindowSends     uint64 `json:"window_sends"`
	WindowGrants    uint64 `json:"window_grants"`
	WindowDenials   uint64 `json:"window_denials"`
	WindowHops      uint64 `json:"window_hops"`
	WindowSettles   uint64 `json:"window_settles"`
	MaxDenialStreak uint64 `json:"max_denial_streak"`
	// OldestIdleWindows is how many consecutive check windows the
	// least-recently-active unsettled leaver has gone without a forward
	// hop or a grant.
	OldestIdleWindows uint64 `json:"oldest_idle_windows"`
	// Step is the driver-supplied logical time of the check (sequential
	// steps, concurrent events, or node pump steps).
	Step uint64 `json:"step"`
}

func (v StallVerdict) String() string {
	return fmt.Sprintf("stall=%s leavers=%d pending=%d window[timeouts=%d delivers=%d sends=%d grants=%d denials=%d hops=%d settles=%d] streak=%d idle=%dw step=%d",
		v.Kind, v.LeaversRemaining, v.Pending,
		v.WindowTimeouts, v.WindowDelivers, v.WindowSends,
		v.WindowGrants, v.WindowDenials, v.WindowHops, v.WindowSettles,
		v.MaxDenialStreak, v.OldestIdleWindows, v.Step)
}

// leaverSlot is one leaver's progress epoch. All fields are atomics: the
// sequential engine updates them from its single-threaded hook, the
// concurrent runtime from many goroutines at once.
type leaverSlot struct {
	settled atomic.Bool
	// denialStreak counts consecutive denials since the last grant.
	denialStreak atomic.Uint64
	// lastActive is the check-window index of the leaver's most recent
	// forward hop or grant (progress epochs, in watchdog windows).
	lastActive atomic.Uint64
}

// laneCell is one Event.Lane's share of the per-event activity counts, a
// cache line to itself: the runtime's workers emit on their own lanes and so
// count on their own lines. Atomics all the same — a lane is a hint, and two
// emitters may share one.
type laneCell struct {
	timeouts, delivers, sends, hops atomic.Uint64
	_                               [32]byte
}

// Progress is the per-run liveness tracker: per-leaver progress slots plus
// windowed activity counters, feeding the fdp_progress_*/fdp_stall_*
// series of a Registry. NoteEvent and NoteOracle are the hot path —
// lock-free, zero-alloc, safe for concurrent use. Check (and the Watch
// ticking it) must be driven from a single goroutine.
type Progress struct {
	byIndex []*leaverSlot // by ref.Index, nil where no leaver; read-only after NewProgress
	list    []*leaverSlot // deterministic iteration for Check

	// Cumulative activity, windowed by Check: what every event moves is
	// striped by lane and summed at read (activity), what only an oracle
	// verdict or a settle moves is one word each.
	cells *[256]laneCell
	// window is the current check-window index (slots stamp lastActive
	// with it). Every hop reads it and only Check writes it: it sits with
	// the read-only fields above, not with the counts below.
	window  atomic.Uint64
	grants  atomic.Uint64
	denials atomic.Uint64
	settles atomic.Uint64

	// Checker-goroutine-only window baselines (not atomics: single caller).
	lastTimeouts, lastDelivers, lastSends uint64
	lastGrants, lastDenials, lastHops     uint64
	lastSettles                           uint64

	// Registry series (nil when constructed without a registry). The hop
	// series is a collector over the lane cells.
	remainingG *Gauge
	grantsC    *Counter
	denialsC   *Counter
	streakG    *Gauge
	stateG     *Gauge
	verdicts   [4]*Counter
}

// NewProgress builds a tracker for the given leavers. labels is the
// instance label set merged into every series name (`engine="sim"`,
// `node="2"`, ...); empty means unlabeled. reg may be nil for a tracker
// that only classifies (no exposition). A leaver named twice gets one slot,
// and a ⊥ in the list none — it names no process, so it is not counted in
// Remaining or the leavers gauge (the map this slice replaced gave it a slot
// under the ⊥ key, which only an event of no process could settle).
func NewProgress(reg *Registry, labels string, leavers []ref.Ref) *Progress {
	p := &Progress{cells: new([256]laneCell)}
	for _, r := range leavers {
		i := ref.Index(r)
		if i < 0 {
			continue // ⊥ names no process
		}
		if grow := i + 1 - len(p.byIndex); grow > 0 {
			p.byIndex = append(p.byIndex, make([]*leaverSlot, grow)...)
		}
		if p.byIndex[i] == nil {
			p.byIndex[i] = &leaverSlot{}
			p.list = append(p.list, p.byIndex[i])
		}
	}
	if reg != nil {
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		p.remainingG = reg.Gauge(MetricProgressLeavers+suffix, "unsettled leavers")
		p.grantsC = reg.Counter(MetricProgressGrants+suffix, "oracle grants at exit-guard sites")
		p.denialsC = reg.Counter(MetricProgressDenials+suffix, "oracle denials at exit-guard sites")
		reg.CounterFunc(MetricProgressHops+suffix, "sends by unsettled leavers (departure progress hops)",
			func() uint64 { _, _, _, hops := p.activity(); return hops })
		p.streakG = reg.Gauge(MetricProgressDenialStreak+suffix, "largest current consecutive-denial run of any leaver")
		p.stateG = reg.Gauge(MetricStallState+suffix, "current stall classification (0 none, 1 livelock, 2 starvation, 3 quiescent)")
		for k := StallLivelock; k <= StallQuiescent; k++ {
			p.verdicts[k] = reg.Counter(MetricStallVerdicts+"{"+mergedKind(labels, k)+"}",
				"stall verdicts emitted per kind")
		}
		p.remainingG.Set(int64(len(p.list)))
	}
	return p
}

// slot returns r's leaver slot, or nil when r is no leaver of this run: a
// stayer, ⊥, or an identity past every leaver or below zero (ref.FromWire
// hands a node whatever a peer put on the wire).
func (p *Progress) slot(r ref.Ref) *leaverSlot {
	if i := ref.Index(r); uint(i) < uint(len(p.byIndex)) {
		return p.byIndex[i]
	}
	return nil
}

// activity sums the lane cells. Each count is monotone and the lanes are
// read in a fixed order, so successive sums read by one goroutine never
// decrease.
func (p *Progress) activity() (timeouts, delivers, sends, hops uint64) {
	for i := range p.cells {
		c := &p.cells[i]
		timeouts += c.timeouts.Load()
		delivers += c.delivers.Load()
		sends += c.sends.Load()
		hops += c.hops.Load()
	}
	return
}

func mergedKind(labels string, k StallKind) string {
	if labels == "" {
		return `kind="` + k.String() + `"`
	}
	return labels + `,kind="` + k.String() + `"`
}

// Remaining returns the current unsettled-leaver count.
func (p *Progress) Remaining() int {
	n := 0
	for _, s := range p.list {
		if !s.settled.Load() {
			n++
		}
	}
	return n
}

// NoteEvent is the engine event hook: install with AddEventHook on either
// engine. Zero-alloc; safe for concurrent use.
func (p *Progress) NoteEvent(e sim.Event) {
	c := &p.cells[e.Lane]
	switch e.Kind {
	case sim.EvTimeout:
		c.timeouts.Add(1)
	case sim.EvDeliver:
		c.delivers.Add(1)
	case sim.EvSend:
		c.sends.Add(1)
		if s := p.slot(e.Proc); s != nil && !s.settled.Load() {
			c.hops.Add(1)
			s.lastActive.Store(p.window.Load())
		}
	case sim.EvExit:
		p.settle(e.Proc)
	case sim.EvSleep:
		// FSP: hibernation is the settle event.
		p.settle(e.Proc)
	case sim.EvWake:
		if s := p.slot(e.Proc); s != nil && s.settled.CompareAndSwap(true, false) {
			if p.remainingG != nil {
				p.remainingG.Add(1)
			}
		}
	}
}

func (p *Progress) settle(r ref.Ref) {
	if s := p.slot(r); s != nil && s.settled.CompareAndSwap(false, true) {
		p.settles.Add(1)
		if p.remainingG != nil {
			p.remainingG.Add(-1)
		}
	}
}

// NoteOracle is the oracle grant/denial hook: install with
// World.SetOracleHook (sequential), Runtime.SetOracleHook (concurrent) or
// call directly where grants are decided (the distributed oracle's round
// settlement). Zero-alloc; safe for concurrent use. Verdicts for
// non-leavers are counted but carry no streak.
func (p *Progress) NoteOracle(u ref.Ref, granted bool) {
	if granted {
		p.grants.Add(1)
		if p.grantsC != nil {
			p.grantsC.Inc()
		}
		if s := p.slot(u); s != nil {
			s.denialStreak.Store(0)
			s.lastActive.Store(p.window.Load())
		}
		return
	}
	p.denials.Add(1)
	if p.denialsC != nil {
		p.denialsC.Inc()
	}
	if s := p.slot(u); s != nil {
		s.denialStreak.Add(1)
	}
}

// Check classifies the window since the previous Check. pending is the
// driver's queued-message count (sequential and concurrent: the world's or
// frozen world's Stats().TotalInQueue; node: local queue + inbox).
// step is the driver's logical time, recorded in the verdict. Check must
// be called from one goroutine; stalled is true when the window made no
// settle progress while leavers remain.
func (p *Progress) Check(step uint64, pending int) (v StallVerdict, stalled bool) {
	timeouts, delivers, sends, hops := p.activity()
	grants := p.grants.Load()
	denials := p.denials.Load()
	settles := p.settles.Load()

	v = StallVerdict{
		Pending:        pending,
		Step:           step,
		WindowTimeouts: timeouts - p.lastTimeouts,
		WindowDelivers: delivers - p.lastDelivers,
		WindowSends:    sends - p.lastSends,
		WindowGrants:   grants - p.lastGrants,
		WindowDenials:  denials - p.lastDenials,
		WindowHops:     hops - p.lastHops,
		WindowSettles:  settles - p.lastSettles,
	}
	p.lastTimeouts, p.lastDelivers, p.lastSends = timeouts, delivers, sends
	p.lastGrants, p.lastDenials, p.lastHops = grants, denials, hops
	p.lastSettles = settles

	window := p.window.Add(1)
	var maxStreak, oldestIdle uint64
	for _, s := range p.list {
		if s.settled.Load() {
			continue
		}
		v.LeaversRemaining++
		if st := s.denialStreak.Load(); st > maxStreak {
			maxStreak = st
		}
		// window was just bumped, so an idle leaver's gap is at least 1.
		if idle := window - s.lastActive.Load(); idle > oldestIdle {
			oldestIdle = idle
		}
	}
	v.MaxDenialStreak = maxStreak
	v.OldestIdleWindows = oldestIdle
	if p.streakG != nil {
		p.streakG.Set(int64(maxStreak))
	}

	switch {
	case v.LeaversRemaining == 0,
		v.WindowSettles > 0,
		v.WindowGrants > 0:
		v.Kind = StallNone
	case v.WindowTimeouts == 0 && v.WindowDelivers == 0 && v.WindowSends == 0 && pending == 0:
		v.Kind = StallQuiescent
	case v.WindowDelivers == 0 && pending > 0:
		v.Kind = StallStarvation
	default:
		// Actions and messages flowing, zero grants, zero settles.
		v.Kind = StallLivelock
	}
	if p.stateG != nil {
		p.stateG.Set(int64(v.Kind))
	}
	if v.Kind != StallNone && p.verdicts[v.Kind] != nil {
		p.verdicts[v.Kind].Inc()
	}
	return v, v.Kind != StallNone
}
