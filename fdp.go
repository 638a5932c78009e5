// Package fdp is a library for safely excluding leaving nodes from overlay
// networks, reproducing "Towards a Universal Approach for the Finite
// Departure Problem in Overlay Networks" (Koutsopoulos, Scheideler,
// Strothmann; SPAA 2015 brief announcement).
//
// It provides:
//
//   - the self-stabilizing departure protocol of the paper (Algorithms
//     1–3) relying on the SINGLE oracle, and its oracle-free Finite Sleep
//     Problem variant — Simulate;
//   - the Section 4 framework P′ that embeds the departure protocol into
//     overlay-maintenance protocols (linearization, sorted ring, clique) —
//     SimulateOverlay;
//   - the four universal primitives of Section 2 and the constructive
//     Theorem 1 transformation between arbitrary weakly connected
//     topologies — Morph;
//   - a sharded M:N concurrent runtime (a few worker goroutines multiplex
//     all processes) running the same scenarios — SimulateParallel;
//   - the full experiment suite E1–E16 regenerating every table and figure
//     of EXPERIMENTS.md — Experiments.
//
// The deterministic discrete-event simulator underneath implements the
// paper's exact model: unbounded non-FIFO channels, weakly fair atomic
// actions, fair message receipt, awake/asleep/gone lifecycle.
package fdp

import (
	"errors"
	"fmt"
	"io"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/diffval"
	"fdp/internal/framework"
	"fdp/internal/obs"
	"fdp/internal/oracle"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// Variant selects the departure flavour.
type Variant int

// Departure variants.
const (
	// FDP — leaving processes irrevocably exit (needs an oracle).
	FDP Variant = iota
	// FSP — leaving processes fall asleep (no oracle needed).
	FSP
)

// Topology selects the initial overlay shape. It is the scenario builder's
// own vocabulary, not a copy of it: every value prints the name journal
// headers record, and Topologies lists them all.
type Topology = churn.Topology

// Initial topologies.
const (
	Line          = churn.TopoLine
	DirectedLine  = churn.TopoDirectedLine
	Ring          = churn.TopoRing
	Star          = churn.TopoStar
	Tree          = churn.TopoTree
	Clique        = churn.TopoClique
	Hypercube     = churn.TopoHypercube
	Random        = churn.TopoRandom
	SkipGraph     = churn.TopoSkipGraph
	DeBruijn      = churn.TopoDeBruijn
	RandomRegular = churn.TopoRandomRegular
)

// LeavePattern selects which processes leave (the builder's vocabulary, as
// Topology is).
type LeavePattern = churn.LeavePattern

// Leave patterns.
const (
	// LeaveRandom marks a uniform random subset.
	LeaveRandom = churn.LeaveRandom
	// LeaveArticulation prefers cut vertices (adversarial placement).
	LeaveArticulation = churn.LeaveArticulation
	// LeaveBlock marks a contiguous block of the identifier space.
	LeaveBlock = churn.LeaveBlock
	// LeaveAllButOne marks everyone except a single staying process.
	LeaveAllButOne = churn.LeaveAllButOne
	// LeaveNeighborhood marks all but one member of one process's closed
	// neighborhood; LeaveFraction is ignored.
	LeaveNeighborhood = churn.LeaveNeighborhood
)

// OracleKind selects the oracle advising leaving processes.
type OracleKind int

// Oracles.
const (
	// OracleSingle is the paper's SINGLE oracle: true when the caller has
	// edges with at most one other relevant process.
	OracleSingle OracleKind = iota
	// OracleNIDEC is the stricter oracle of Foreback et al.
	OracleNIDEC
	// OracleExitSafe is the ideal ground-truth safety oracle.
	OracleExitSafe
	// OracleTimeoutSingle is a deliberately stale approximation of SINGLE.
	OracleTimeoutSingle
	// OracleUnsafe always answers true; exits may disconnect the overlay.
	// It exists to demonstrate that safety depends on the oracle.
	OracleUnsafe
)

// Scheduler selects the fair scheduler driving the simulation.
type Scheduler int

// Schedulers.
const (
	// SchedRandom picks uniformly among enabled actions (seeded, with a
	// fairness aging bound).
	SchedRandom Scheduler = iota
	// SchedRounds executes canonical asynchronous rounds.
	SchedRounds
	// SchedAdversarial reorders maximally within the fairness bound.
	SchedAdversarial
	// SchedFIFO delivers oldest-first.
	SchedFIFO
)

// Config describes one departure simulation.
type Config struct {
	// N is the number of processes (>= 1).
	N int
	// Topology is the initial overlay shape (default Line).
	Topology Topology
	// LeaveFraction in [0,1] marks that share of processes as leaving
	// (capped so at least one process stays).
	LeaveFraction float64
	// Pattern places the leavers (default LeaveRandom).
	Pattern LeavePattern
	// Variant selects FDP (default) or FSP.
	Variant Variant
	// Oracle advises leavers (default OracleSingle; ignored for FSP).
	Oracle OracleKind
	// Scheduler drives the run (default SchedRandom).
	Scheduler Scheduler
	// Seed makes the run reproducible.
	Seed int64
	// MaxSteps bounds the run (default 1<<20).
	MaxSteps int

	// CorruptBeliefs is the probability that each initial mode belief is
	// flipped (self-stabilization stress).
	CorruptBeliefs float64
	// CorruptAnchors is the probability that each process starts with a
	// random (likely invalid) anchor.
	CorruptAnchors float64
	// JunkMessages injects that many arbitrary initial in-flight messages.
	JunkMessages int

	// CheckSafety verifies the Lemma 2 invariant during the run.
	CheckSafety bool

	// Observe, when non-nil, receives the run's FDP metric series (event
	// counts, message age, mailbox depth, time-to-exit, oracle calls) —
	// see NewObserver.
	Observe *Observer

	// Journal, when non-nil, receives the run's causal event journal:
	// a JSONL stream (header line plus one record per event) that
	// cmd/fdpreplay can verify, diff, and render as spans or a Chrome
	// trace — see internal/trace. Sequential journals replay
	// byte-identically; runtime journals carry the same causal schema
	// but are diff-only.
	Journal io.Writer

	// Stop, when non-nil, interrupts the run when it closes: the simulator
	// finishes the current step and returns with Converged false. Wire it
	// to a signal handler for graceful ^C — the journal written so far
	// stays a valid prefix.
	Stop <-chan struct{}
}

// Report is the outcome of a simulation.
type Report struct {
	// Converged reports whether a legitimate state was reached.
	Converged bool
	// Steps is the number of atomic actions executed.
	Steps int
	// Rounds is the round count (SchedRounds only, else 0).
	Rounds int
	// MessagesSent counts all sends.
	MessagesSent uint64
	// MessagesByLabel breaks sends down per action label.
	MessagesByLabel map[string]uint64
	// Exits is the number of processes that executed exit.
	Exits int
	// MaxChannel is the high-water mark of any channel.
	MaxChannel int
	// SafetyViolated reports a Lemma 2 violation (only with CheckSafety;
	// expected only with OracleUnsafe).
	SafetyViolated bool
	// Interrupted reports that Config.Stop closed before the run finished
	// (Converged is false in that case, but the run is not a failure).
	Interrupted bool
}

// ErrBadConfig is returned for invalid configurations.
var ErrBadConfig = errors.New("fdp: invalid configuration")

func (c *Config) oracle() sim.Oracle {
	switch c.Oracle {
	case OracleNIDEC:
		return oracle.NIDEC{}
	case OracleExitSafe:
		return oracle.ExitSafe{}
	case OracleTimeoutSingle:
		return oracle.NewTimeoutSingle(0)
	case OracleUnsafe:
		return oracle.Always(true)
	default:
		return oracle.Single{}
	}
}

// engine returns the protocol and legitimacy variants v selects.
func (v Variant) engine() (core.Variant, sim.Variant) {
	if v == FSP {
		return core.VariantFSP, sim.FSP
	}
	return core.VariantFDP, sim.FDP
}

// build validates cfg and builds the scenario Simulate, SimulateParallel,
// SimulateOverlay and CheckSchedules start from, plus the legitimacy variant
// the run is judged by. It is the one place the façade turns a description
// into a world: churn.TryBuild, its typed errors (a topology the size cannot
// host, a leaver set that empties a component) reported as ErrBadConfig.
// extra carries what Config cannot say: explicit leavers by index, or the
// overlay P′ wraps and its pending junk. The Oracle is the configured one
// (nil for FSP), wrapped to count calls when the run is observed.
func (c *Config) build(extra churn.Config) (*churn.Scenario, sim.Variant, error) {
	if c.N < 1 {
		return nil, 0, fmt.Errorf("%w: N = %d", ErrBadConfig, c.N)
	}
	if c.LeaveFraction < 0 || c.LeaveFraction > 1 {
		return nil, 0, fmt.Errorf("%w: LeaveFraction = %v", ErrBadConfig, c.LeaveFraction)
	}
	coreVariant, simVariant := c.Variant.engine()
	var orc sim.Oracle
	if c.Variant == FDP {
		orc = c.oracle()
		if c.Observe != nil {
			orc = obs.CountOracle(orc, c.Observe)
		}
	}
	s, err := churn.TryBuild(churn.Config{
		N: c.N, Topology: c.Topology, LeaveFraction: c.LeaveFraction, Pattern: c.Pattern,
		Corrupt: churn.Corruption{
			FlipBeliefs: c.CorruptBeliefs, RandomAnchors: c.CorruptAnchors,
			JunkMessages: c.JunkMessages, JunkPending: extra.Corrupt.JunkPending,
		},
		Variant: coreVariant, Oracle: orc, Seed: c.Seed,
		LeaverIndices: extra.LeaverIndices, Overlay: extra.Overlay,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return s, simVariant, nil
}

// Simulate runs the departure protocol of Section 3 on the configured
// scenario and reports the outcome.
func Simulate(cfg Config) (Report, error) {
	s, simVariant, err := cfg.build(churn.Config{})
	if err != nil {
		return Report{}, err
	}
	return cfg.run(s, simVariant)
}

// run drives s on the sequential engine under cfg's scheduler until it is
// legitimate and in its overlay's target topology, journaling and observing
// it as cfg asks.
func (c *Config) run(s *churn.Scenario, simVariant sim.Variant) (Report, error) {
	// The scheduler is resolved by the name it stamps into the journal header.
	sched, err := trace.SchedulerByName(c.Scheduler.String(), c.Seed)
	if err != nil {
		return Report{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.Observe != nil {
		obs.InstrumentWorld(s.World, c.Observe)
	}
	journalErr := c.journal(trace.EngineSim, s.Config, sched.Name(), s.World.AddEventHook)
	res := sim.Run(s.World, sched, sim.RunOptions{
		Variant:     simVariant,
		MaxSteps:    c.MaxSteps,
		CheckSafety: c.CheckSafety,
		Target:      s.InTarget,
		Stop:        c.Stop,
	})
	return reportFrom(res), journalErr()
}

// journal records the run into c.Journal, when set, under a header naming
// the engine, the scenario scn and the scheduler, through addHook. The
// returned func reports a write error once the run is over.
func (c *Config) journal(engine string, scn churn.Config, sched string, addHook func(func(sim.Event))) func() error {
	if c.Journal == nil {
		return func() error { return nil }
	}
	jw := trace.NewWriter(c.Journal, trace.Header{Version: trace.Version, Engine: engine, Scenario: trace.ScenarioFor(scn, sched)})
	addHook(jw.Record)
	return func() error {
		if err := jw.Err(); err != nil {
			return fmt.Errorf("fdp: journal write: %w", err)
		}
		return nil
	}
}

func reportFrom(res sim.RunResult) Report {
	return Report{
		Converged:       res.Converged,
		Steps:           res.Steps,
		Rounds:          res.Rounds,
		MessagesSent:    res.Stats.Sent,
		MessagesByLabel: res.Stats.SentByLabel,
		Exits:           res.Stats.Exits,
		MaxChannel:      res.Stats.MaxChannel,
		SafetyViolated:  res.SafetyViolation != nil,
		Interrupted:     res.Interrupted,
	}
}

// Overlay selects the maintenance protocol wrapped by SimulateOverlay (the
// framework builder's own vocabulary).
type Overlay = framework.OverlayKind

// Overlay protocols (members of the class 𝒫).
const (
	// Linearize stabilizes to the doubly-linked sorted list.
	Linearize = framework.OverlayLinearize
	// SortRing stabilizes to the sorted ring.
	SortRing = framework.OverlayRing
	// CliqueTC stabilizes to the complete graph.
	CliqueTC = framework.OverlayClique
	// SkipList stabilizes to a two-level skip list (sorted list plus a
	// sorted shortcut list over the even-key nodes).
	SkipList = framework.OverlaySkip
)

// OverlayConfig describes a Section 4 (framework P′) simulation.
type OverlayConfig struct {
	// N is the number of processes.
	N int
	// Overlay is the wrapped maintenance protocol.
	Overlay Overlay
	// LeaveFraction in [0,1] marks that share of processes as leaving.
	LeaveFraction float64
	// Variant selects FDP (default) or FSP.
	Variant Variant
	// Seed makes the run reproducible.
	Seed int64
	// MaxSteps bounds the run (default 1<<21).
	MaxSteps int
	// CorruptAnchors / JunkPending corrupt the initial state.
	CorruptAnchors float64
	JunkPending    int
}

// OverlayReport extends Report with the overlay outcome.
type OverlayReport struct {
	Report
	// TargetReached reports whether the staying processes form the
	// overlay's target topology.
	TargetReached bool
}

// SimulateOverlay runs the framework P′ of Section 4: the chosen overlay
// maintenance protocol combined with the departure protocol, from a random
// connected topology, under the SINGLE oracle (FDP) and the random
// scheduler, until the run is legitimate and the staying processes form the
// overlay's target topology.
func SimulateOverlay(cfg OverlayConfig) (OverlayReport, error) {
	p, err := churn.ByName("overlay", cfg.Overlay.String(), framework.Overlays())
	if err != nil {
		return OverlayReport{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	c := Config{
		N: cfg.N, Topology: Random, LeaveFraction: cfg.LeaveFraction,
		Variant: cfg.Variant, Seed: cfg.Seed, MaxSteps: cfg.MaxSteps,
		CorruptAnchors: cfg.CorruptAnchors,
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1 << 21
	}
	s, simVariant, err := c.build(churn.Config{Overlay: p, Corrupt: churn.Corruption{JunkPending: cfg.JunkPending}})
	if err != nil {
		return OverlayReport{}, err
	}
	rep, err := c.run(s, simVariant)
	return OverlayReport{Report: rep, TargetReached: s.InTarget(s.World)}, err
}

// SimulateParallel runs the same scenario as Simulate — same topology,
// leave pattern, corruption and seed, built by the same churn.Build and
// transplanted onto the concurrent runtime — until legitimacy, the
// wall-clock timeout or Stop. CheckSafety judges the Lemma 2 invariant once,
// on the frozen world after the runtime stopped: a lost connection is never
// restored, so that one check gives the answer a check after every action
// would. Scheduler and MaxSteps have no meaning on the runtime and are
// ignored.
func SimulateParallel(cfg Config, timeout time.Duration) (Report, error) {
	s, simVariant, err := cfg.build(churn.Config{})
	if err != nil {
		return Report{}, err
	}
	rt := diffval.MirrorWorld(s.World, s.Config.Oracle)
	if cfg.Observe != nil {
		obs.InstrumentRuntime(rt, cfg.Observe)
	}
	// Runtime journals are diff-able but not replayable: no scheduler to
	// re-drive.
	journalErr := cfg.journal(trace.EngineRuntime, s.Config, "", rt.AddEventHook)
	interrupted := false
	rt.Start()
	ok := rt.WaitUntil(func(w *sim.World) bool {
		select {
		case <-cfg.Stop:
			interrupted = true
			return true
		default:
			return w.Legitimate(simVariant)
		}
	}, 2*time.Millisecond, timeout)
	rt.Stop()
	violated := cfg.CheckSafety && !rt.Freeze().RelevantComponentsIntact()
	rep := Report{
		Converged:      ok && !interrupted && !violated,
		Steps:          int(rt.Events()),
		MessagesSent:   rt.Sent(),
		Exits:          int(rt.Gone()), // bounded by Config.N
		SafetyViolated: violated,
		Interrupted:    interrupted,
	}
	return rep, journalErr()
}
