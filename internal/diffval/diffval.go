// Package diffval is the differential cross-validation harness: it runs the
// SAME scenario (topology, churn, corruption, optional mid-run fault
// strike) on both execution engines — the sequential simulator (sim.World,
// one legal schedule at a time) and the concurrent runtime
// (parallel.Runtime, true parallelism with real mailboxes) — and compares
// their safety and liveness VERDICTS.
//
// The two engines cannot be compared step-by-step: the concurrent runtime
// explores schedules the sequential driver never draws, and vice versa. But
// the paper's guarantees are schedule-independent — Lemma 2 (relevant
// processes stay weakly connected per initial component) and Lemma 3 (every
// leaving process eventually departs) hold for EVERY admissible schedule —
// so the engines must agree on the outcome classification: converged or
// not, safety intact or violated, leavers settled or not, staying
// components preserved or not, and, for the framework P′ (a scenario with an
// Overlay), the staying processes in P's target topology or not (Theorem 4).
// Any disagreement is a bug in one of the engines (historically: in the
// concurrent one; this harness flushed out the frozen-snapshot re-seal bug,
// the mailbox close that discarded in-flight references, and the missing
// drop accounting in parallel sends).
package diffval

import (
	"fmt"
	"io"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/faults"
	"fdp/internal/obs"
	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// Config describes one differential scenario. The same Scenario config is
// built independently for each engine; churn.Build is deterministic per
// seed and ref.Space hands out identical references, so both sides start
// from bit-identical states.
type Config struct {
	// Scenario is the churn configuration; its Seed field is overwritten by
	// the per-run seed.
	Scenario churn.Config
	// MaxSteps bounds the sequential run (0 = a generous default).
	MaxSteps int
	// Timeout bounds the concurrent run (0 = 20s).
	Timeout time.Duration
	// Poll is the concurrent legitimacy-polling interval (0 = 1ms).
	Poll time.Duration
	// Waves is a train of mid-run transient fault waves struck on both
	// sides, each fired once the engine reaches its After point (sequential
	// steps on the simulator, executed events on the runtime), with
	// injector seeds faults.WaveSeed(seed, i) on BOTH engines.
	Waves []faults.Wave
	// Scheduler names the sequential scheduler (trace.SchedulerByName);
	// empty selects the default random scheduler. The concurrent engine has
	// no scheduler — its interleavings come from the machine.
	Scheduler string
	// Journal, when non-nil, receives the sequential run as a replayable
	// trace journal (header + records, trace.WriteJournal format) with every
	// fired wave recorded at the step it actually struck. Replaying that
	// journal byte-identically reproduces the sequential side of the verdict.
	Journal io.Writer
	// StallSteps enables the sequential liveness watchdog: every StallSteps
	// executed steps, a window with remaining leavers and no settles is
	// classified (livelock / starvation / quiescent, see obs.StallKind) and
	// the first stall captures a flight-recorder snapshot. 0 disables.
	StallSteps int
	// StallWindow is the concurrent watchdog's wall-clock window, checked
	// from the legitimacy-polling loop. 0 disables.
	StallWindow time.Duration
	// FlightK bounds each engine's always-on flight-recorder ring (0 =
	// trace.DefaultFlightCap), the one ring behind both the
	// dump-on-disagreement diagnostics and the stall reports. A ring that
	// never wraps yields a snapshot that is a complete, replayable prefix
	// of the run.
	FlightK int
}

// scheduler resolves the sequential scheduler. The default keeps the
// harness's historical random scheduler; named schedulers come from the
// trace registry so journal headers name what actually ran.
func (c Config) scheduler(seed int64) (sim.Scheduler, string) {
	if c.Scheduler == "" {
		return sim.NewRandomScheduler(seed, 256), "random"
	}
	sched, err := trace.SchedulerByName(c.Scheduler, seed)
	if err != nil {
		panic(fmt.Sprintf("diffval: %v", err))
	}
	return sched, c.Scheduler
}

// Outcome classifies one engine's terminal state.
type Outcome struct {
	// Converged reports a legitimate state within the budget with safety
	// intact.
	Converged bool
	// SafetyViolated reports a Lemma 2 violation: some relevant process
	// became disconnected from its initial component. Reference loss is
	// irreversible (references spread only by copy-store-send along existing
	// PG edges), so a terminal-state check is equivalent to a continuous one.
	SafetyViolated bool
	// Gone counts departed processes (FDP exits; always 0 for FSP).
	Gone uint64
	// LeaversSettled reports the Lemma 3 goal: every initial leaver is gone
	// (FDP) or hibernating (FSP).
	LeaversSettled bool
	// StayingPreserved reports that the staying processes of each initial
	// component still form one weakly connected cluster.
	StayingPreserved bool
	// InTarget reports that the staying processes form the scenario's
	// overlay target topology (Theorem 4 for P′; always true without an
	// overlay). Converged includes it.
	InTarget bool
	// Steps is the executed sequential steps / concurrent events
	// (informational; never compared).
	Steps uint64
	// Stall is the watchdog's classification ("livelock", "starvation",
	// "quiescent") when the run failed to converge and a stall was
	// detected; empty otherwise. Informational, never compared — the two
	// engines legitimately stall in different shapes (the sequential
	// scheduler can starve a queue the parallel shards drain).
	Stall string `json:"stall,omitempty"`
}

// StallReport is the evidence captured at an engine's FIRST stall verdict:
// the classification plus a flight-recorder snapshot, rendered the same
// way a finished run's artifacts are. For the sequential engine a
// Complete snapshot is a replayable journal prefix (Header names the
// scenario; trace.VerifyReplay accepts it); the concurrent engine's
// snapshot is one real interleaving, joinable and diffable but not
// replayable.
type StallReport struct {
	// Verdict is the watchdog classification and its window evidence.
	Verdict obs.StallVerdict
	// Header frames Flight as a journal fragment for WriteJournal /
	// fdpreplay.
	Header trace.Header
	// Flight is the flight-recorder snapshot, oldest event first.
	Flight []trace.Record
	// Complete reports the ring never wrapped: Flight is the entire event
	// stream from step 0.
	Complete bool
	// Spans renders the per-leaver departure span trees of the snapshot —
	// the causal story of how far each stuck departure got.
	Spans string
}

// Verdict pairs the two engines' outcomes for one seed.
type Verdict struct {
	Seed       int64
	Sequential Outcome
	Concurrent Outcome

	// SequentialStall and ConcurrentStall carry each engine's first stall
	// report when its watchdog was enabled and fired; nil otherwise.
	SequentialStall *StallReport
	ConcurrentStall *StallReport

	// SequentialTrace and ConcurrentTrace hold the last FlightK events of
	// each engine (sim.FormatEvents rendering), filled in ONLY when the
	// verdicts disagree — the post-mortem a bare "engines diverged on seed
	// 17" never gave. Empty on agreement.
	SequentialTrace string
	ConcurrentTrace string
}

// Dump renders the disagreement diagnostics (empty when the engines
// agreed).
func (v Verdict) Dump() string {
	if v.SequentialTrace == "" && v.ConcurrentTrace == "" {
		return ""
	}
	return fmt.Sprintf("seed %d diverged\nsequential %+v\nlast events:\n%sconcurrent %+v\nlast events:\n%s",
		v.Seed, v.Sequential, v.SequentialTrace, v.Concurrent, v.ConcurrentTrace)
}

// Agree reports whether the engines reached the same classification. Steps
// is excluded: schedule lengths legitimately differ.
func (v Verdict) Agree() bool {
	a, b := v.Sequential, v.Concurrent
	return a.Converged == b.Converged &&
		a.SafetyViolated == b.SafetyViolated &&
		a.Gone == b.Gone &&
		a.LeaversSettled == b.LeaversSettled &&
		a.StayingPreserved == b.StayingPreserved &&
		a.InTarget == b.InTarget
}

// MirrorWorld builds a concurrent runtime from a sequential world: the
// world is cloned (protocol states, modes, sleep states, channel contents)
// and the clones are transplanted, so the runtime starts from exactly the
// state w is in while w itself stays usable. Gone processes are omitted —
// the runtime, like the model, has no notion of a struct for a departed
// process.
func MirrorWorld(w *sim.World, orc parallel.Oracle) *parallel.Runtime {
	src := w.Clone()
	rt := parallel.NewRuntime(orc)
	for _, r := range src.Refs() {
		if src.LifeOf(r) == sim.Gone {
			continue
		}
		rt.AddProcess(r, src.ModeOf(r), src.ProtocolOf(r))
	}
	for _, r := range src.Refs() {
		if src.LifeOf(r) == sim.Gone {
			continue
		}
		if src.LifeOf(r) == sim.Asleep {
			rt.ForceAsleep(r)
		}
		for _, m := range src.ChannelSnapshot(r) {
			rt.Enqueue(r, m)
		}
	}
	return rt
}

// Run executes the scenario on both engines and returns the paired verdict.
func Run(cfg Config, seed int64) Verdict {
	scn, variant := cfg.scenario(seed)
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 20 * time.Second
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = time.Millisecond
	}
	seqOut, seqFlight, seqStall := runSequential(cfg, scn, variant, seed)
	concOut, concFlight, concStall := runConcurrent(cfg, scn, variant, timeout, poll, seed)
	v := Verdict{Seed: seed, Sequential: seqOut, Concurrent: concOut,
		SequentialStall: seqStall, ConcurrentStall: concStall}
	if !v.Agree() {
		// Render the dumps only on divergence: a Verdict slice over 50+ seeds
		// stays small, and the traces point straight at the diverging run.
		v.SequentialTrace = sim.FormatEvents(seqFlight.Events())
		v.ConcurrentTrace = sim.FormatEvents(concFlight.Events())
	}
	return v
}

// scenario returns the run's churn config, seeded, and its legitimacy
// variant.
func (c Config) scenario(seed int64) (churn.Config, sim.Variant) {
	scn := c.Scenario
	scn.Seed = seed
	if scn.Variant == core.VariantFSP {
		return scn, sim.FSP
	}
	return scn, sim.FDP
}

// SequentialOutcome runs only the sequential engine of the scenario —
// exactly the sequential side of Run (same scheduler, same wave seeds, same
// journal hook), without paying for a concurrent run. The fuzz shrinker uses
// it as the fast still-failing predicate for sequential-side failures.
func SequentialOutcome(cfg Config, seed int64) Outcome {
	scn, variant := cfg.scenario(seed)
	out, _, _ := runSequential(cfg, scn, variant, seed)
	return out
}

// RunSeeds runs seeds 0..n-1 and returns the verdicts.
func RunSeeds(cfg Config, n int) []Verdict {
	out := make([]Verdict, 0, n)
	for seed := int64(0); seed < int64(n); seed++ {
		out = append(out, Run(cfg, seed))
	}
	return out
}

// runSequential and runConcurrent each return their engine's flight ring
// beside the outcome: the stall watchdog snapshots it mid-run, Run renders
// it when the verdicts disagree.
func runSequential(cfg Config, scn churn.Config, variant sim.Variant, seed int64) (Outcome, *trace.Flight, *StallReport) {
	s := churn.Build(scn)
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 400000
	}
	leavers := s.LeavingNodes()
	sched, schedName := cfg.scheduler(seed)
	opts := sim.RunOptions{Variant: variant, CheckSafety: true, Target: s.InTarget}

	flight := trace.NewFlight(cfg.FlightK)
	s.World.AddEventHook(flight.Record)
	var recs []trace.Record
	if cfg.Journal != nil {
		s.World.AddEventHook(func(e sim.Event) { recs = append(recs, trace.FromEvent(e)) })
	}

	var stall *StallReport
	fired := make([]trace.StrikeSpec, 0, len(cfg.Waves))
	if cfg.StallSteps > 0 {
		prog := obs.NewProgress(nil, "", leavers)
		s.World.AddEventHook(prog.NoteEvent)
		s.World.SetOracleHook(prog.NoteOracle)
		wd := obs.NewStepWatchdog(prog, cfg.StallSteps)
		w := s.World
		opts.OnStep = func(*sim.World) {
			v, stalled := wd.Tick(w.Steps(), func() int { return w.Stats().TotalInQueue })
			if stalled && stall == nil {
				hs := trace.ScenarioFor(scn, schedName)
				hs.Strikes = append([]trace.StrikeSpec(nil), fired...)
				stall = newStallReport(v, flight, trace.EngineSim, hs, leavers)
			}
		}
	}
	var res sim.RunResult
	for i, wv := range cfg.Waves {
		if wv.After > s.World.Steps() {
			opts.MaxSteps = wv.After
			res = sim.Run(s.World, sched, opts)
			if res.SafetyViolation != nil {
				break
			}
		}
		// After a strike the leavers set is unchanged (strikes corrupt
		// values, never modes), so Lemma 3 is still judged on `leavers`.
		faults.New(wv.Config, faults.WaveSeed(seed, i)).Strike(s.World)
		sp := trace.StrikeSpecFor(wv)
		sp.After = s.World.Steps()
		fired = append(fired, sp)
	}
	if res.SafetyViolation == nil {
		opts.MaxSteps = s.World.Steps() + maxSteps
		res = sim.Run(s.World, sched, opts)
	}
	if cfg.Journal != nil {
		hs := trace.ScenarioFor(scn, schedName)
		hs.Strikes = fired
		// A journal write failure surfaces on the reader side (truncated or
		// missing journal); the verdict itself is unaffected.
		_ = trace.WriteJournal(cfg.Journal,
			trace.Header{Version: trace.Version, Engine: trace.EngineSim, Scenario: hs}, recs)
	}

	out := Outcome{
		Converged:        res.Converged && res.SafetyViolation == nil,
		SafetyViolated:   res.SafetyViolation != nil,
		Gone:             goneCount(s.World, s.Nodes),
		LeaversSettled:   leaversSettled(s.World, leavers, variant),
		StayingPreserved: res.SafetyViolation == nil && s.World.StayingComponentsPreserved(),
		InTarget:         s.InTarget(s.World),
		Steps:            uint64(s.World.Steps()),
	}
	if !out.Converged && stall != nil {
		out.Stall = stall.Verdict.Kind.String()
	}
	return out, flight, stall
}

func runConcurrent(cfg Config, scn churn.Config, variant sim.Variant, timeout, poll time.Duration, seed int64) (Outcome, *trace.Flight, *StallReport) {
	s := churn.Build(scn)
	leavers := s.LeavingNodes()
	rt := MirrorWorld(s.World, scn.Oracle)
	flight := trace.NewFlight(cfg.FlightK)
	rt.AddEventHook(flight.Record)
	var stall *StallReport
	var wd *obs.Watchdog
	if cfg.StallWindow > 0 {
		prog := obs.NewProgress(nil, "", leavers)
		rt.AddEventHook(prog.NoteEvent)
		rt.SetOracleHook(prog.NoteOracle)
		wd = obs.NewWatchdog(prog, cfg.StallWindow)
	}
	rt.Start()
	// checkStall runs from the single polling goroutine below; the runtime
	// has no cheap queue-depth counter, so pending is approximated from the
	// always-on atomics (sends that neither delivered nor dropped).
	checkStall := func() {
		if wd == nil {
			return
		}
		pending := func() int {
			return int(rt.Sent() - rt.KindCount(sim.EvDeliver) - rt.Dropped())
		}
		if v, stalled := wd.Tick(rt.Events(), pending); stalled && stall == nil {
			stall = newStallReport(v, flight, trace.EngineRuntime, trace.ScenarioFor(scn, ""), leavers)
		}
	}

	// One deadline bounds both wait phases — the same total budget the
	// replaced wall-clock loop used. A closed channel, unlike a one-shot
	// time.After value, stays observable: if the strike-budget wait burns
	// the whole budget, the convergence wait below still sees the expiry
	// instead of ticking forever.
	deadline := make(chan struct{})
	timer := time.AfterFunc(timeout, func() { close(deadline) })
	defer timer.Stop()
	for i, wv := range cfg.Waves {
		// The concurrent strike point: the same event budget the sequential
		// side used as a step budget.
		waitFor(func() bool { return rt.Events() >= uint64(wv.After) }, poll, deadline)
		faults.New(wv.Config, faults.WaveSeed(seed, i)).StrikeRuntime(rt)
	}

	// P′'s target is judged where convergence is, at the last poll, as the
	// sequential side judges it where its run stopped: stale P messages still
	// in flight when the staying processes first form the target may break
	// it for a while, so the world after Stop can be out of it again.
	var inTarget bool
	converged := waitFor(func() bool {
		checkStall()
		w := rt.Freeze()
		inTarget = s.InTarget(w)
		return inTarget && w.Legitimate(variant)
	}, poll, deadline)
	rt.Stop()
	final := rt.Freeze()

	violated := !final.RelevantComponentsIntact()
	out := Outcome{
		Converged:        converged && !violated,
		SafetyViolated:   violated,
		Gone:             rt.Gone(),
		LeaversSettled:   leaversSettled(final, leavers, variant),
		StayingPreserved: !violated && final.StayingComponentsPreserved(),
		InTarget:         inTarget,
		Steps:            rt.Events(),
	}
	if !out.Converged && stall != nil {
		out.Stall = stall.Verdict.Kind.String()
	}
	return out, flight, stall
}

// newStallReport captures an engine's first stall verdict with its flight
// ring's snapshot, framed as a journal fragment of scenario hs. The span
// trees are seeded with the leavers' names: a stuck departure has no exit
// record to be discovered by.
func newStallReport(v obs.StallVerdict, flight *trace.Flight, engine string, hs trace.Scenario, leavers []ref.Ref) *StallReport {
	fl, complete := flight.Snapshot()
	names := make([]string, len(leavers))
	for i, l := range leavers {
		names[i] = l.String()
	}
	return &StallReport{
		Verdict:  v,
		Header:   trace.Header{Version: trace.Version, Engine: engine, Scenario: hs},
		Flight:   fl,
		Complete: complete,
		Spans:    trace.SpanTrees(trace.BuildSpansFor(fl, names)),
	}
}

// waitFor re-evaluates cond every poll tick until it holds or deadline is
// closed, returning the final verdict (cond is re-checked once at expiry).
// A closed deadline makes waitFor return immediately, so sequential waits
// sharing one deadline all respect the same total budget.
func waitFor(cond func() bool, poll time.Duration, deadline <-chan struct{}) bool {
	if cond() {
		return true
	}
	if poll <= 0 {
		poll = time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-deadline:
			return cond()
		case <-ticker.C:
			if cond() {
				return true
			}
		}
	}
}

func goneCount(w *sim.World, nodes []ref.Ref) uint64 {
	var n uint64
	for _, r := range nodes {
		if w.LifeOf(r) == sim.Gone {
			n++
		}
	}
	return n
}

// leaversSettled checks Lemma 3 on an engine's terminal state: the
// simulator's world, where a gone process is Gone, or a frozen runtime
// snapshot, where it is absent.
func leaversSettled(w *sim.World, leavers []ref.Ref, variant sim.Variant) bool {
	var hib ref.Set
	if variant == sim.FSP {
		hib = w.Hibernating()
	}
	for _, r := range leavers {
		if variant == sim.FSP {
			if !hib.Has(r) {
				return false
			}
		} else if w.Has(r) && w.LifeOf(r) != sim.Gone {
			return false
		}
	}
	return true
}
