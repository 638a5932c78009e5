package fdp

import (
	"fmt"

	"fdp/internal/check"
	"fdp/internal/churn"
)

// CheckConfig describes a bounded exhaustive schedule exploration: EVERY
// fair schedule of a small departure scenario is explored up to Depth
// atomic actions, verifying the Lemma 2 safety invariant in each reachable
// state. Keep N tiny (3–4): the state space is exponential.
type CheckConfig struct {
	// N is the number of processes (>= 2).
	N int
	// Leavers is the number of leaving processes, placed in the middle of
	// the topology (the most dangerous spot on a line).
	Leavers int
	// Topology is the initial overlay shape (default Line).
	Topology Topology
	// Depth bounds the schedule length (default 12).
	Depth int
	// MaxStates bounds the exploration (default 1<<20).
	MaxStates int
	// Oracle guards exits (default OracleSingle; OracleUnsafe demonstrates
	// the counterexample). OracleTimeoutSingle is rejected: its cache is
	// state the explored fingerprints do not cover.
	Oracle OracleKind
	// Variant selects FDP (default) or FSP (no oracle).
	Variant Variant
}

// CheckReport is the outcome of CheckSchedules.
type CheckReport struct {
	// Safe reports whether no explored schedule violated safety.
	Safe bool
	// StatesExplored counts distinct protocol states expanded.
	StatesExplored int
	// DepthReached is the deepest fully explored level.
	DepthReached int
	// Truncated reports whether MaxStates cut the exploration short.
	Truncated bool
	// LegitimateStates counts explored states satisfying legitimacy.
	LegitimateStates int
	// Frontier counts non-legitimate states at the depth bound — schedules
	// that might converge later; the bound decides safety, not liveness.
	Frontier int
	// Counterexample describes the violating schedule when Safe is false.
	Counterexample string
}

// CheckSchedules explores every fair schedule of the configured scenario up
// to the depth bound (bounded explicit-state model checking). With
// OracleSingle the result is expected Safe; with OracleUnsafe it returns the
// concrete schedule on which an early exit disconnects the staying nodes.
func CheckSchedules(cfg CheckConfig) (CheckReport, error) {
	if cfg.N < 2 {
		return CheckReport{}, fmt.Errorf("%w: N = %d", ErrBadConfig, cfg.N)
	}
	if cfg.Leavers < 0 || cfg.Leavers >= cfg.N {
		return CheckReport{}, fmt.Errorf("%w: Leavers = %d of %d", ErrBadConfig, cfg.Leavers, cfg.N)
	}
	if cfg.Variant != FSP && cfg.Oracle == OracleTimeoutSingle {
		return CheckReport{}, fmt.Errorf("%w: Oracle = %v keeps state outside the explored fingerprint", ErrBadConfig, cfg.Oracle)
	}
	// Leavers sit in the middle. With none, the empty index list falls through
	// to the pattern, which at LeaveFraction 0 marks nobody.
	var leavers []int
	for i := (cfg.N - cfg.Leavers) / 2; len(leavers) < cfg.Leavers; i++ {
		leavers = append(leavers, i)
	}
	sc := Config{N: cfg.N, Topology: cfg.Topology, Variant: cfg.Variant, Oracle: cfg.Oracle}
	s, simVariant, err := sc.build(churn.Config{LeaverIndices: leavers})
	if err != nil {
		return CheckReport{}, err
	}
	out := check.Explore(s.World, check.Options{
		MaxDepth:  cfg.Depth,
		MaxStates: cfg.MaxStates,
		Invariant: check.SafetyInvariant(),
		Variant:   simVariant,
	})
	rep := CheckReport{
		Safe:             out.OK(),
		StatesExplored:   out.StatesExplored,
		DepthReached:     out.DepthReached,
		Truncated:        out.Truncated,
		LegitimateStates: out.LegitimateStates,
		Frontier:         out.FrontierStates,
	}
	if !out.OK() {
		rep.Counterexample = out.Violations[0].String()
	}
	return rep, nil
}
