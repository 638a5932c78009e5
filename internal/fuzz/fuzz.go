// Package fuzz is the adversarial schedule fuzzer: it generates randomized
// churn scenarios — arbitrary topologies (including the skip-graph-like,
// de Bruijn and random-regular families), targeted leave patterns (cut
// vertices, whole neighborhoods, contiguous blocks), corruption extremes,
// and mid-run fault-wave trains with message duplication — runs each case on
// BOTH execution engines through the differential harness (diffval), and
// classifies any failure: verdict disagreement, safety violation on either
// engine, joint non-convergence, a panic, or a scenario the builder rejects.
//
// Every failing case is a plain-data trace.Scenario, so it can be shrunk
// (see Shrink) by delta-debugging the scenario itself — dropping fault
// waves, zeroing corruption knobs, halving the topology, pinning and then
// dropping individual leavers — and, for sequential failures, truncating the
// recorded schedule to the shortest violating prefix (ShrinkJournal). The
// shrunk case's sequential run is committed as a byte-identical replayable
// journal under testdata/, which fdpreplay and the regression tests replay
// forever after.
package fuzz

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/diffval"
	"fdp/internal/faults"
	"fdp/internal/trace"
)

// Failure kinds, ordered roughly by severity.
const (
	// KindSafetySequential: the sequential engine violated Lemma 2.
	KindSafetySequential = "safety-sequential"
	// KindSafetyConcurrent: the concurrent engine violated Lemma 2.
	KindSafetyConcurrent = "safety-concurrent"
	// KindDisagreement: the engines classified the outcome differently.
	KindDisagreement = "disagreement"
	// KindNoConvergence: both engines agree the run never became legitimate.
	KindNoConvergence = "no-convergence"
	// KindPanic: an engine panicked while executing the case.
	KindPanic = "panic"
	// KindBuildError: the scenario builder rejected a case the generator
	// considered well-formed (a churn builder bug, not a generator bug).
	KindBuildError = "build-error"
)

// Case is one generated adversarial scenario: a plain-data trace.Scenario
// (so cases serialize into fixture metadata and journal headers verbatim)
// whose Strikes carry the requested fault-wave train.
type Case struct {
	Scenario trace.Scenario `json:"scenario"`
}

// Failure is one classified fuzzing failure.
type Failure struct {
	Kind    string          `json:"kind"`
	Case    Case            `json:"case"`
	Note    string          `json:"note,omitempty"`
	Verdict diffval.Verdict `json:"-"`
}

func (f *Failure) String() string {
	return fmt.Sprintf("%s: n=%d topo=%s pattern=%s variant=%s oracle=%s sched=%s seed=%d strikes=%d %s",
		f.Kind, f.Case.Scenario.N, f.Case.Scenario.Topology, f.Case.Scenario.Pattern,
		f.Case.Scenario.Variant, f.Case.Scenario.Oracle, f.Case.Scenario.Scheduler,
		f.Case.Scenario.Seed, len(f.Case.Scenario.Strikes), f.Note)
}

// Options tunes a fuzzing run.
type Options struct {
	// Seed seeds the case generator; a given (Seed, Runs, Mutate) triple
	// always generates the same case sequence.
	Seed int64
	// Runs bounds the number of cases (0 = until Duration expires; if both
	// are zero, 64 cases).
	Runs int
	// Duration bounds the wall-clock fuzzing time (0 = unbounded).
	Duration time.Duration
	// MaxSteps bounds each sequential run (0 = diffval.DefaultMaxSteps).
	MaxSteps int
	// Timeout bounds each concurrent run in the runtime's seeded virtual
	// time, not on the wall clock (0 = 10s; diffval's own default is larger
	// than a fuzzing loop wants).
	Timeout time.Duration
	// Mutate injects the deliberately broken MUTANT-SINGLE oracle into every
	// generated case — the mutation-test harness proving the fuzzer detects
	// and shrinks a real guard bug.
	Mutate bool
	// MaxFailures stops the run early once this many failures are collected
	// (0 = 8).
	MaxFailures int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Stop, when non-nil, ends the sweep after the current case once it
	// closes. Failures found so far are still reported (and shrunk).
	Stop <-chan struct{}
}

func (o Options) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 10 * time.Second
	}
	return o.Timeout
}

func (o Options) maxFailures() int {
	if o.MaxFailures <= 0 {
		return 8
	}
	return o.MaxFailures
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Result summarizes a fuzzing run.
type Result struct {
	Ran      int
	Failures []*Failure
}

// Generate draws one adversarial case from rng. Cases are always
// buildable by contract (e.g. hypercubes only at powers of two) — a case the
// builder rejects anyway is a churn bug and classified KindBuildError.
func Generate(rng *rand.Rand) Case {
	topos := churn.Topologies()
	topo := topos[rng.Intn(len(topos))]
	n := 2 + rng.Intn(15)
	if topo == churn.TopoHypercube {
		n = 1 << (1 + rng.Intn(3))
	}
	pats := churn.Patterns()
	s := trace.Scenario{
		N:             n,
		Topology:      topo.String(),
		Pattern:       pats[rng.Intn(len(pats))].String(),
		LeaveFraction: 0.1 + 0.8*rng.Float64(),
		Seed:          rng.Int63(),
		Scheduler:     []string{"random", "fifo", "rounds", "adversarial"}[rng.Intn(4)],
	}
	if rng.Intn(4) == 0 {
		s.Variant = core.VariantFSP.String()
	} else {
		s.Variant = core.VariantFDP.String()
		s.Oracle = []string{"SINGLE", "NIDEC", "EXITSAFE"}[rng.Intn(3)]
	}
	// Corruption in three regimes: clean, moderate, extreme.
	switch rng.Intn(3) {
	case 1:
		s.FlipBeliefs = rng.Float64()
		s.RandomAnchors = rng.Float64()
		s.JunkMessages = rng.Intn(8)
	case 2:
		s.FlipBeliefs = 1
		s.RandomAnchors = 1
		s.JunkMessages = 16 + rng.Intn(48)
	}
	// Separate initial components exercise the per-component safety seal.
	// Hypercubes are excluded: the per-component size would leave the
	// power-of-two contract.
	if n >= 6 && topo != churn.TopoHypercube && rng.Intn(4) == 0 {
		s.Components = 2
	}
	// A wave train of 0..2 mid-run strikes, ascending.
	for w, nw := 0, rng.Intn(3); w < nw; w++ {
		s.Strikes = append(s.Strikes, faults.Wave{After: 20 + rng.Intn(480), Config: faults.Config{
			FlipBeliefs:       rng.Float64(),
			ScrambleAnchors:   rng.Float64(),
			JunkMessages:      rng.Intn(12),
			DuplicateMessages: rng.Intn(6),
		}})
	}
	sort.Slice(s.Strikes, func(i, j int) bool { return s.Strikes[i].After < s.Strikes[j].After })
	return Case{Scenario: s}
}

// diffConfig is the differential harness's configuration of a case: the
// case's scenario under the options' budgets.
func (c Case) diffConfig(opts Options) diffval.Config {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = diffval.DefaultMaxSteps
	}
	return diffval.Config{
		Scenario: c.Scenario,
		MaxSteps: maxSteps,
		Timeout:  opts.timeout(),
		// The liveness watchdogs ride along on every case, so a case that
		// burns its budget reports *why* (livelock / starvation / quiescent)
		// instead of a bare deadline. Eight windows per budget keeps the
		// check overhead negligible while catching a stall well before the
		// budget expires.
		StallSteps: maxSteps / 8,
	}
}

// Execute runs one case on both engines and classifies the outcome. A nil
// return means the case passed. Panics anywhere in the engines are caught
// and classified KindPanic. A sequential Lemma 2 violation is the verdict
// whatever the runtime does (classify's first case), so such a case is
// classified without the concurrent run, which would only wait out its
// timeout for a convergence that cannot come.
func Execute(c Case, opts Options) (f *Failure) {
	defer func() {
		if r := recover(); r != nil {
			f = &Failure{Kind: KindPanic, Case: c, Note: fmt.Sprintf("panic: %v", r)}
		}
	}()
	if _, err := c.Scenario.BuildScenario(); err != nil {
		return &Failure{Kind: KindBuildError, Case: c, Note: err.Error()}
	}
	seq := diffval.Sequential(c.diffConfig(opts), c.Scenario.Seed)
	if seq.Outcome.SafetyViolated {
		return classify(c, diffval.Verdict{Seed: c.Scenario.Seed, Sequential: seq.Outcome, SequentialStall: seq.Stall})
	}
	return classify(c, seq.Pair())
}

func classify(c Case, v diffval.Verdict) *Failure {
	switch {
	case v.Sequential.SafetyViolated:
		return &Failure{Kind: KindSafetySequential, Case: c, Verdict: v,
			Note: fmt.Sprintf("sequential Lemma 2 violation after %d steps", v.Sequential.Steps)}
	case v.Concurrent.SafetyViolated:
		return &Failure{Kind: KindSafetyConcurrent, Case: c, Verdict: v,
			Note: fmt.Sprintf("concurrent Lemma 2 violation after %d events", v.Concurrent.Steps)}
	case !v.Agree():
		return &Failure{Kind: KindDisagreement, Case: c, Verdict: v,
			Note: fmt.Sprintf("sequential %+v vs concurrent %+v", v.Sequential, v.Concurrent)}
	case !v.Sequential.Converged:
		note := fmt.Sprintf("both engines stalled (%d steps)", v.Sequential.Steps)
		if v.Sequential.Stall != "" || v.Concurrent.Stall != "" {
			// The watchdog saw the stall happen: say what shape it had
			// instead of a bare deadline (see obs.StallKind).
			note = fmt.Sprintf("both engines stalled (%d steps; watchdog: sequential=%s concurrent=%s)",
				v.Sequential.Steps, orNone(v.Sequential.Stall), orNone(v.Concurrent.Stall))
		}
		return &Failure{Kind: KindNoConvergence, Case: c, Verdict: v, Note: note}
	}
	return nil
}

// orNone renders an absent stall classification explicitly.
func orNone(kind string) string {
	if kind == "" {
		return "none"
	}
	return kind
}

// Run drives the fuzzing loop: generate, execute, collect failures.
func Run(opts Options) Result {
	rng := rand.New(rand.NewSource(opts.Seed))
	runs := opts.Runs
	if runs <= 0 && opts.Duration <= 0 {
		runs = 64
	}
	var deadline time.Time
	if opts.Duration > 0 {
		deadline = time.Now().Add(opts.Duration) //fdplint:ignore detiter -duration is a wall-clock budget; the cases themselves replay from the seed
	}
	res := Result{}
	for i := 0; runs <= 0 || i < runs; i++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) { //fdplint:ignore detiter the -duration budget
			break
		}
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				return res
			default:
			}
		}
		c := Generate(rng)
		if opts.Mutate {
			c.Scenario.Variant = core.VariantFDP.String()
			c.Scenario.Oracle = MutantSingle{}.Name()
		}
		res.Ran++
		if f := Execute(c, opts); f != nil {
			opts.logf("case %d FAILED: %s", i, f)
			res.Failures = append(res.Failures, f)
			if len(res.Failures) >= opts.maxFailures() {
				break
			}
		} else if (i+1)%25 == 0 {
			opts.logf("%d cases, %d failures", i+1, len(res.Failures))
		}
	}
	return res
}
