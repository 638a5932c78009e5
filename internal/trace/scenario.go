package trace

import (
	"fmt"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/faults"
	"fdp/internal/framework"
	"fdp/internal/oracle"
	"fdp/internal/sim"
)

// Scenario describes a run, and is embedded in every journal header: the
// plain-data image of churn.Config, plus the sequential scheduler's name and
// the run's fault waves. A journal is self-describing — BuildScenario
// rebuilds the exact initial world (same
// references, same topology, same corruption, same initial messages with the
// same causal identities), which is what makes sequential journals
// deterministically replayable.
type Scenario struct {
	N             int     `json:"n"`
	Topology      string  `json:"topology"`
	LeaveFraction float64 `json:"leave"`
	Pattern       string  `json:"pattern"`
	Variant       string  `json:"variant"` // "FDP" or "FSP"
	// Overlay names the P that P′ wraps (framework.Overlays); empty means the
	// bare departure protocol. A custom P is recorded as "custom", which
	// replay refuses.
	Overlay string `json:"overlay,omitempty"`
	// Oracle is the oracle's Name(); empty means no oracle. Stateful oracles
	// (SINGLE~timeout) are rebuilt with their default parameters, which the
	// recording side must therefore use.
	Oracle string `json:"oracle,omitempty"`
	Seed   int64  `json:"seed"`
	// Scheduler names the sequential scheduler a recording runs under
	// (SchedulerByName; empty is "random"). Replay re-drives the recorded
	// action sequence and never consults it.
	Scheduler string `json:"scheduler,omitempty"`
	// Corruption knobs (churn.Corruption).
	FlipBeliefs   float64 `json:"flip_beliefs,omitempty"`
	RandomAnchors float64 `json:"random_anchors,omitempty"`
	JunkMessages  int     `json:"junk_messages,omitempty"`
	JunkPending   int     `json:"junk_pending,omitempty"`
	Components    int     `json:"components,omitempty"`
	// LeaverIndices, when non-empty, pins the leaving set to these node
	// indices instead of drawing it from Pattern/LeaveFraction. The shrinker
	// uses it to drop individual leavers from a failing scenario without
	// perturbing the pattern rng.
	LeaverIndices []int `json:"leavers,omitempty"`
	// Strikes are the mid-run fault waves of the run, in order. A recording
	// strikes wave i once the world reaches its After step, and its header
	// lists each wave at the step it ACTUALLY fired (which can be earlier
	// than requested if the run went quiescent first). Replay re-applies
	// wave i at that step boundary with the injector seed
	// faults.WaveSeed(Seed, i), so struck journals stay byte-identical.
	Strikes []faults.Wave `json:"strikes,omitempty"`
}

// ScenarioFor captures a churn config (plus scheduler provenance) as a
// journal scenario.
func ScenarioFor(cfg churn.Config, scheduler string) Scenario {
	s := Scenario{
		N:             cfg.N,
		Topology:      cfg.Topology.String(),
		LeaveFraction: cfg.LeaveFraction,
		Pattern:       cfg.Pattern.String(),
		Variant:       cfg.Variant.String(),
		Seed:          cfg.Seed,
		Scheduler:     scheduler,
		FlipBeliefs:   cfg.Corrupt.FlipBeliefs,
		RandomAnchors: cfg.Corrupt.RandomAnchors,
		JunkMessages:  cfg.Corrupt.JunkMessages,
		JunkPending:   cfg.Corrupt.JunkPending,
		Components:    cfg.Components,
		LeaverIndices: cfg.LeaverIndices,
	}
	if cfg.Oracle != nil {
		s.Oracle = cfg.Oracle.Name()
	}
	if cfg.Overlay != nil {
		s.Overlay = cfg.Overlay.String()
	}
	return s
}

// ChurnConfig is the inverse of ScenarioFor: it rebuilds the churn.Config a
// journal header describes.
func (s Scenario) ChurnConfig() (churn.Config, error) {
	topo, err := churn.TopologyByName(s.Topology)
	if err != nil {
		return churn.Config{}, err
	}
	pat, err := churn.PatternByName(s.Pattern)
	if err != nil {
		return churn.Config{}, err
	}
	variant, err := variantByName(s.Variant)
	if err != nil {
		return churn.Config{}, err
	}
	orc, err := OracleByName(s.Oracle)
	if err != nil {
		return churn.Config{}, err
	}
	var p churn.Overlay
	if s.Overlay != "" {
		if p, err = churn.ByName("overlay", s.Overlay, framework.Overlays()); err != nil {
			return churn.Config{}, err
		}
	}
	return churn.Config{
		N:             s.N,
		Topology:      topo,
		LeaveFraction: s.LeaveFraction,
		Pattern:       pat,
		Corrupt: churn.Corruption{
			FlipBeliefs:   s.FlipBeliefs,
			RandomAnchors: s.RandomAnchors,
			JunkMessages:  s.JunkMessages,
			JunkPending:   s.JunkPending,
		},
		Variant:       variant,
		Oracle:        orc,
		Seed:          s.Seed,
		Components:    s.Components,
		LeaverIndices: s.LeaverIndices,
		Overlay:       p,
	}, nil
}

// BuildScenario rebuilds the recorded scenario: the same churn.Build call
// the recording side made, so references, topology, corruption and the
// causal identities of initial messages all match the recording.
func (s Scenario) BuildScenario() (*churn.Scenario, error) {
	cfg, err := s.ChurnConfig()
	if err != nil {
		return nil, err
	}
	return churn.TryBuild(cfg)
}

// variantByName inverts core.Variant.String.
func variantByName(name string) (core.Variant, error) {
	return churn.ByName("variant", name, []core.Variant{core.VariantFDP, core.VariantFSP})
}

// oracleRegistry holds extra oracle constructors registered at runtime —
// test-only oracles (e.g. the fuzzer's deliberately broken mutants) whose
// journals must still replay.
var oracleRegistry = map[string]func() sim.Oracle{}

// RegisterOracle makes journals recorded under a non-built-in oracle
// replayable: OracleByName consults the registry after the built-ins. Not
// safe for concurrent use; register during setup. Registering a built-in
// name has no effect (built-ins win).
func RegisterOracle(name string, factory func() sim.Oracle) {
	oracleRegistry[name] = factory
}

// OracleByName rebuilds an oracle from its Name(). The empty name is the
// nil oracle. Stateful oracles come back with default parameters.
func OracleByName(name string) (sim.Oracle, error) {
	if name == "" {
		return nil, nil
	}
	for _, o := range []sim.Oracle{
		oracle.Single{}, oracle.NIDEC{}, oracle.ExitSafe{}, oracle.EC{},
		oracle.Always(true), oracle.Always(false), oracle.NewTimeoutSingle(0),
	} {
		if o.Name() == name {
			return o, nil
		}
	}
	if factory, ok := oracleRegistry[name]; ok {
		return factory(), nil
	}
	return nil, fmt.Errorf("trace: unknown oracle %q", name)
}

// SimVariant maps the scenario variant to the run driver's legitimacy
// predicate.
func (s Scenario) SimVariant() (sim.Variant, error) {
	v, err := variantByName(s.Variant)
	if err != nil {
		return 0, err
	}
	if v == core.VariantFSP {
		return sim.FSP, nil
	}
	return sim.FDP, nil
}

// SchedulerByName builds a scheduler from its Name() and the scenario seed.
// The recorder resolves a scenario's scheduler only through it, so the name
// in a journal header is the scheduler that ran.
func SchedulerByName(name string, seed int64) (sim.Scheduler, error) {
	for _, s := range []sim.Scheduler{
		sim.NewRandomScheduler(seed, 0), sim.NewRoundScheduler(),
		sim.NewAdversarialScheduler(seed, 0), sim.NewFIFOScheduler(),
	} {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("trace: unknown scheduler %q", name)
}
