package trace

import (
	"fmt"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/faults"
	"fdp/internal/oracle"
	"fdp/internal/sim"
)

// Scenario is the construction recipe of a recorded run, embedded in every
// journal header. It is the plain-data image of churn.Config: a journal is
// self-describing — ScenarioWorld rebuilds the exact initial world (same
// references, same topology, same corruption, same initial messages with the
// same causal identities), which is what makes sequential journals
// deterministically replayable.
type Scenario struct {
	N             int     `json:"n"`
	Topology      string  `json:"topology"`
	LeaveFraction float64 `json:"leave"`
	Pattern       string  `json:"pattern"`
	Variant       string  `json:"variant"` // "FDP" or "FSP"
	// Oracle is the oracle's Name(); empty means no oracle. Stateful oracles
	// (SINGLE~timeout) are rebuilt with their default parameters, which the
	// recording side must therefore use.
	Oracle string `json:"oracle,omitempty"`
	Seed   int64  `json:"seed"`
	// Scheduler is provenance only: replay re-drives the recorded action
	// sequence and never consults a scheduler.
	Scheduler string `json:"scheduler,omitempty"`
	// Corruption knobs (churn.Corruption).
	FlipBeliefs   float64 `json:"flip_beliefs,omitempty"`
	RandomAnchors float64 `json:"random_anchors,omitempty"`
	JunkMessages  int     `json:"junk_messages,omitempty"`
	Components    int     `json:"components,omitempty"`
	// LeaverIndices, when non-empty, pins the leaving set to these node
	// indices instead of drawing it from Pattern/LeaveFraction. The shrinker
	// uses it to drop individual leavers from a failing scenario without
	// perturbing the pattern rng.
	LeaverIndices []int `json:"leavers,omitempty"`
	// Strikes are the mid-run fault waves applied during the recording, in
	// order, each at the sequential step it ACTUALLY fired (which can be
	// earlier than requested if the run went quiescent first). Replay
	// re-applies wave i at the same step boundary with the injector seed
	// faults.WaveSeed(Seed, i), so struck journals stay byte-identical.
	Strikes []StrikeSpec `json:"strikes,omitempty"`
}

// StrikeSpec is the plain-data image of a faults.Wave, embedded in journal
// headers.
type StrikeSpec struct {
	After             int     `json:"after"`
	FlipBeliefs       float64 `json:"flip_beliefs,omitempty"`
	ScrambleAnchors   float64 `json:"scramble_anchors,omitempty"`
	JunkMessages      int     `json:"junk_messages,omitempty"`
	DuplicateMessages int     `json:"duplicate_messages,omitempty"`
}

// StrikeSpecFor captures a fault wave as a journal strike spec.
func StrikeSpecFor(w faults.Wave) StrikeSpec {
	return StrikeSpec{
		After:             w.After,
		FlipBeliefs:       w.FlipBeliefs,
		ScrambleAnchors:   w.ScrambleAnchors,
		JunkMessages:      w.JunkMessages,
		DuplicateMessages: w.DuplicateMessages,
	}
}

// Wave is the inverse of StrikeSpecFor.
func (sp StrikeSpec) Wave() faults.Wave {
	return faults.Wave{
		After: sp.After,
		Config: faults.Config{
			FlipBeliefs:       sp.FlipBeliefs,
			ScrambleAnchors:   sp.ScrambleAnchors,
			JunkMessages:      sp.JunkMessages,
			DuplicateMessages: sp.DuplicateMessages,
		},
	}
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
		Components:    cfg.Components,
		LeaverIndices: cfg.LeaverIndices,
	}
	if cfg.Oracle != nil {
		s.Oracle = cfg.Oracle.Name()
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
	return churn.Config{
		N:             s.N,
		Topology:      topo,
		LeaveFraction: s.LeaveFraction,
		Pattern:       pat,
		Corrupt: churn.Corruption{
			FlipBeliefs:   s.FlipBeliefs,
			RandomAnchors: s.RandomAnchors,
			JunkMessages:  s.JunkMessages,
		},
		Variant:       variant,
		Oracle:        orc,
		Seed:          s.Seed,
		Components:    s.Components,
		LeaverIndices: s.LeaverIndices,
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
	switch name {
	case "":
		return nil, nil
	case oracle.Single{}.Name():
		return oracle.Single{}, nil
	case oracle.NIDEC{}.Name():
		return oracle.NIDEC{}, nil
	case oracle.ExitSafe{}.Name():
		return oracle.ExitSafe{}, nil
	case oracle.EC{}.Name():
		return oracle.EC{}, nil
	case oracle.Always(true).Name():
		return oracle.Always(true), nil
	case oracle.Always(false).Name():
		return oracle.Always(false), nil
	case (&oracle.TimeoutSingle{}).Name():
		return oracle.NewTimeoutSingle(0), nil
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
// Recording drivers use it so the name they stamp into the header is the
// name they actually ran.
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
