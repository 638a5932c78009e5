// Package diffval is the differential cross-validation harness: it runs the
// SAME scenario (topology, churn, corruption, optional mid-run fault
// strike) on both execution engines — the sequential simulator (sim.World,
// one legal schedule at a time) and the sharded runtime (parallel.Runtime,
// its shards and epochs interleaved on a virtual clock drawn from the seed,
// Runtime.RunSeeded) — and compares their safety and liveness VERDICTS.
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

// DefaultMaxSteps is the sequential step budget of a run whose Config
// leaves MaxSteps at 0.
const DefaultMaxSteps = 400000

// Config describes one differential run. The same Scenario is built
// independently for each engine; churn.Build is deterministic per seed and
// ref.Space hands out identical references, so both sides start from
// bit-identical states.
type Config struct {
	// Scenario is the run; its Seed field is overwritten by the per-run
	// seed. Its Scheduler names the sequential scheduler
	// (trace.SchedulerByName) — the concurrent engine has none, its shard
	// interleavings are drawn from the seed. Its Strikes are struck on both
	// sides, each once the engine reaches its After point (sequential steps
	// on the simulator, executed events on the runtime), with injector seeds
	// faults.WaveSeed(seed, i) on BOTH engines.
	Scenario trace.Scenario
	// MaxSteps bounds the sequential run after its last strike (0 =
	// DefaultMaxSteps).
	MaxSteps int
	// Timeout bounds the concurrent run in the virtual time of
	// parallel.Runtime.RunSeeded, not on the wall clock (0 = 20s).
	Timeout time.Duration
	// StallSteps enables both liveness watchdogs: every StallSteps executed
	// sequential steps or runtime events, a window with remaining leavers
	// and no settles is classified (livelock / starvation / quiescent, see
	// obs.StallKind) and the first stall captures a flight-recorder
	// snapshot. 0 disables.
	StallSteps int
	// FlightK bounds each engine's always-on flight-recorder ring (0 =
	// trace.DefaultFlightCap), the one ring behind both the
	// dump-on-disagreement diagnostics and the stall reports. A ring that
	// never wraps yields a snapshot that is a complete, replayable prefix
	// of the run.
	FlightK int
}

// build builds the run's scenario for one engine. A scenario that does not
// build is the caller's bug: the fuzzer classifies such cases before it
// runs them.
func (c Config) build() *churn.Scenario {
	s, err := c.Scenario.BuildScenario()
	if err != nil {
		panic(fmt.Sprintf("diffval: %v", err))
	}
	return s
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

// MirrorWorld builds a concurrent runtime from a sequential world: each
// live process joins the runtime with its mode, its sleep state, a deep copy
// of its protocol state and a copy of every message in its channel, so the
// runtime starts from exactly the state w is in while w itself stays
// usable and unchanged. Gone processes are omitted — the runtime, like the
// model, has no notion of a struct for a departed process.
func MirrorWorld(w *sim.World, orc parallel.Oracle) *parallel.Runtime {
	return mirror(parallel.NewRuntime(orc), w)
}

// mirror adds w's live processes to the empty runtime rt, whose shard
// count its caller has fixed.
func mirror(rt *parallel.Runtime, w *sim.World) *parallel.Runtime {
	w.CloneLive(func(r ref.Ref, mode sim.Mode, life sim.Life, proto sim.Protocol, ch []sim.Message) {
		rt.AddProcess(r, mode, proto)
		if life == sim.Asleep {
			rt.ForceAsleep(r)
		}
		for _, m := range ch {
			rt.Enqueue(r, m)
		}
	})
	return rt
}

// Run executes the scenario on both engines and returns the paired verdict.
func Run(cfg Config, seed int64) Verdict {
	return Sequential(cfg, seed).Pair()
}

// SequentialRun is the sequential side of one differential run, kept so its
// concurrent side can follow it (Pair) or be skipped where the sequential
// outcome already settles the question: the fuzz shrinker judges
// sequential-side failures on Outcome alone, and the fuzzer classifies a
// sequential Lemma 2 violation without running the runtime.
type SequentialRun struct {
	Outcome Outcome
	// Stall is the sequential watchdog's first stall report, nil if none.
	Stall  *StallReport
	cfg    Config
	flight *trace.Flight
}

// Sequential runs only the sequential engine of the scenario — exactly the
// sequential side of Run (same scheduler, same wave seeds).
func Sequential(cfg Config, seed int64) *SequentialRun {
	cfg.Scenario.Seed = seed
	out, flight, stall := runSequential(cfg)
	return &SequentialRun{Outcome: out, Stall: stall, cfg: cfg, flight: flight}
}

// Pair runs the concurrent side and returns the verdict Run returns.
func (s *SequentialRun) Pair() Verdict {
	timeout := s.cfg.Timeout
	if timeout <= 0 {
		timeout = 20 * time.Second
	}
	concOut, concFlight, concStall := runConcurrent(s.cfg, timeout)
	v := Verdict{Seed: s.cfg.Scenario.Seed, Sequential: s.Outcome, Concurrent: concOut,
		SequentialStall: s.Stall, ConcurrentStall: concStall}
	if !v.Agree() {
		// Render the dumps only on divergence: a Verdict slice over 50+ seeds
		// stays small, and the traces point straight at the diverging run.
		v.SequentialTrace = sim.FormatEvents(s.flight.Events())
		v.ConcurrentTrace = sim.FormatEvents(concFlight.Events())
	}
	return v
}

// RunSeeds runs seeds 0..n-1 and returns the verdicts.
func RunSeeds(cfg Config, n int) []Verdict {
	out := make([]Verdict, 0, n)
	for seed := int64(0); seed < int64(n); seed++ {
		out = append(out, Run(cfg, seed))
	}
	return out
}

// engine is what both engines, sim.World and parallel.Runtime, offer an
// observer.
type engine interface {
	AddEventHook(func(sim.Event))
	SetOracleHook(func(ref.Ref, bool))
}

// observe hooks an engine's flight ring and, when its watchdog is on, the
// progress tracker the watchdog reads.
func observe(e engine, flightK int, leavers []ref.Ref, watch bool) (*trace.Flight, *obs.Progress) {
	flight := trace.NewFlight(flightK)
	e.AddEventHook(flight.Record)
	if !watch {
		return flight, nil
	}
	prog := obs.NewProgress(nil, "", leavers)
	e.AddEventHook(prog.NoteEvent)
	e.SetOracleHook(prog.NoteOracle)
	return flight, prog
}

// runSequential and runConcurrent each return their engine's flight ring
// beside the outcome: the stall watchdog snapshots it mid-run, Run renders
// it when the verdicts disagree.
func runSequential(cfg Config) (Outcome, *trace.Flight, *StallReport) {
	s := cfg.build()
	leavers := s.LeavingNodes()
	flight, prog := observe(s.World, cfg.FlightK, leavers, cfg.StallSteps > 0)
	opts := sim.RunOptions{CheckSafety: true, MaxSteps: cfg.MaxSteps}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	var stall *StallReport
	if prog != nil {
		wd := obs.NewStepWatchdog(prog, cfg.StallSteps)
		opts.OnStep = func(w *sim.World) {
			v, stalled := wd.Tick(w.Steps(), func() int { return w.Stats().TotalInQueue })
			if stalled && stall == nil {
				stall = newStallReport(v, flight, leavers)
			}
		}
	}
	res, hdr, err := trace.RunSequential(cfg.Scenario, s, opts)
	if err != nil {
		panic(fmt.Sprintf("diffval: %v", err))
	}
	if stall != nil {
		// The snapshot is a prefix of the run: its header lists the waves
		// that fired before the stalled step.
		fired := hdr.Scenario.Strikes
		n := 0
		for n < len(fired) && uint64(fired[n].After) < stall.Verdict.Step {
			n++
		}
		stall.Header = hdr
		stall.Header.Scenario.Strikes = fired[:n]
	}
	violated := res.SafetyViolation != nil
	out := outcome(s, s.World, res.Converged, violated, s.InTarget(s.World), stall)
	out.Steps = uint64(s.World.Steps())
	return out, flight, stall
}

// runConcurrent runs the scenario on the runtime under RunSeeded: one
// goroutine, a virtual clock and a schedule drawn from the seed, so the
// concurrent side of a verdict is as reproducible as the sequential one. The
// shard count is drawn from the seed too, never from the host: seeds cover
// two to four shards, so the cross-shard mail path is always exercised.
func runConcurrent(cfg Config, timeout time.Duration) (Outcome, *trace.Flight, *StallReport) {
	s := cfg.build()
	variant, _ := cfg.Scenario.SimVariant() // resolved by build
	seed := cfg.Scenario.Seed
	leavers := s.LeavingNodes()
	rt := parallel.NewRuntime(s.Config.Oracle)
	rt.SetShards(2 + int(uint64(seed)%3))
	mirror(rt, s.World)
	flight, prog := observe(rt, cfg.FlightK, leavers, cfg.StallSteps > 0)
	var wd *obs.StepWatchdog
	if prog != nil {
		wd = obs.NewStepWatchdog(prog, cfg.StallSteps)
	}
	var stall *StallReport
	waves := cfg.Scenario.Strikes
	struck := 0
	var inTarget bool
	converged := rt.RunSeeded(seed, func(w *sim.World) bool {
		// Lemma 2: a lost reference never comes back, so the first broken
		// world ends the run.
		if !w.RelevantComponentsIntact() {
			return true
		}
		// The concurrent strike point: the same event budget the sequential
		// side used as a step budget. A struck world is judged at the next
		// poll, not on the snapshot taken before the strike.
		if struck < len(waves) {
			for struck < len(waves) && rt.Events() >= uint64(waves[struck].After) {
				faults.New(waves[struck].Config, faults.WaveSeed(seed, struck)).StrikeRuntime(rt)
				struck++
			}
			return false
		}
		if wd != nil {
			v, stalled := wd.Tick(int(rt.Events()), func() int { return w.Stats().TotalInQueue })
			if stalled && stall == nil {
				stall = newStallReport(v, flight, leavers)
				// The runtime's snapshot is one interleaving, not a
				// replayable prefix: its header names neither a scheduler
				// nor strike steps.
				hs := cfg.Scenario
				hs.Scheduler, hs.Strikes = "", nil
				stall.Header = trace.Header{Version: trace.Version, Engine: trace.EngineRuntime, Scenario: hs}
			}
		}
		// P′'s target is judged where convergence is, as the sequential side
		// judges it where its run stopped: stale P messages still in flight
		// when the staying processes first form the target may break it for
		// a while.
		inTarget = s.InTarget(w)
		return inTarget && w.Legitimate(variant)
	}, time.Millisecond, timeout)
	final := rt.Freeze()

	out := outcome(s, final, converged, !final.RelevantComponentsIntact(), inTarget, stall)
	out.Steps = rt.Events()
	return out, flight, stall
}

// outcome classifies an engine's final world w of scenario s. The engine's
// driver judges convergence, safety and the target; what departed, settled
// and stayed connected is read off w, where a departed process is absent
// (a frozen runtime) or Gone (the simulator).
func outcome(s *churn.Scenario, w *sim.World, converged, violated, inTarget bool, stall *StallReport) Outcome {
	out := Outcome{
		Converged:        converged && !violated,
		SafetyViolated:   violated,
		LeaversSettled:   true,
		StayingPreserved: !violated && w.StayingComponentsPreserved(),
		InTarget:         inTarget,
	}
	gone := func(r ref.Ref) bool { return !w.Has(r) || w.LifeOf(r) == sim.Gone }
	for _, r := range s.Nodes {
		if gone(r) {
			out.Gone++
		}
	}
	// Lemma 3: every initial leaver is gone (FDP) or hibernating (FSP).
	settled := gone
	if s.Config.Variant == core.VariantFSP {
		settled = w.Hibernating().Has
	}
	for _, r := range s.LeavingNodes() {
		if !settled(r) {
			out.LeaversSettled = false
		}
	}
	if !out.Converged && stall != nil {
		out.Stall = stall.Verdict.Kind.String()
	}
	return out
}

// newStallReport captures an engine's first stall verdict with its flight
// ring's snapshot; the caller frames it with a Header. The span trees are
// seeded with the leavers' names: a stuck departure has no exit record to be
// discovered by.
func newStallReport(v obs.StallVerdict, flight *trace.Flight, leavers []ref.Ref) *StallReport {
	fl, complete := flight.Snapshot()
	names := make([]string, len(leavers))
	for i, l := range leavers {
		names[i] = l.String()
	}
	return &StallReport{
		Verdict:  v,
		Flight:   fl,
		Complete: complete,
		Spans:    trace.SpanTrees(trace.BuildSpansFor(fl, names)),
	}
}
