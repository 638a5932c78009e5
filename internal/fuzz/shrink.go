package fuzz

import (
	"bytes"
	"reflect"

	"fdp/internal/churn"
	"fdp/internal/diffval"
	"fdp/internal/faults"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// Shrink delta-debugs a failing case to a smaller one that still fails,
// returning the minimized case and the number of candidate executions spent.
// "Still fails" accepts ANY failure kind: a shrink step that turns a
// disagreement into a plain sequential safety violation is progress, not a
// different bug.
//
// Sequential-side failures (safety-sequential, no-convergence, build-error)
// are re-checked with the sequential engine only, which keeps shrinking fast
// — a candidate that stops failing sequentially is simply rejected. Failures
// that need both engines (disagreement, concurrent safety, panic) pay for
// the full differential run per candidate.
func Shrink(f *Failure, opts Options, budget int) (Case, int) {
	if budget <= 0 {
		budget = 120
	}
	spent := 0
	interesting := stillFails(f.Kind, opts, &spent, &budget)

	c := f.Case
	for round := 0; round < 4; round++ {
		improved := false

		// Drop the whole wave train, then individual waves.
		if len(c.Scenario.Strikes) > 0 {
			cand := c
			cand.Scenario.Strikes = nil
			if interesting(cand) {
				c, improved = cand, true
			}
		}
		for i := len(c.Scenario.Strikes) - 1; i >= 0; i-- {
			cand := c
			cand.Scenario.Strikes = append(append([]faults.Wave{},
				c.Scenario.Strikes[:i]...), c.Scenario.Strikes[i+1:]...)
			if interesting(cand) {
				c, improved = cand, true
			}
		}

		// Zero each corruption knob.
		for _, zero := range []func(*trace.Scenario){
			func(s *trace.Scenario) { s.FlipBeliefs = 0 },
			func(s *trace.Scenario) { s.RandomAnchors = 0 },
			func(s *trace.Scenario) { s.JunkMessages = 0 },
		} {
			cand := c
			zero(&cand.Scenario)
			if !reflect.DeepEqual(cand.Scenario, c.Scenario) && interesting(cand) {
				c, improved = cand, true
			}
		}

		// Collapse to a single component, the simplest scheduler, the
		// simplest topology.
		for _, simplify := range []func(*trace.Scenario){
			func(s *trace.Scenario) { s.Components = 0 },
			func(s *trace.Scenario) { s.Scheduler = "fifo" },
			func(s *trace.Scenario) { s.Topology = churn.TopoLine.String() },
		} {
			cand := c
			simplify(&cand.Scenario)
			if !reflect.DeepEqual(cand.Scenario, c.Scenario) && interesting(cand) {
				c, improved = cand, true
			}
		}

		// Halve the system until it stops failing.
		for c.Scenario.N > 2 {
			cand := c
			cand.Scenario.N = c.Scenario.N / 2
			if cand.Scenario.N < 2 {
				cand.Scenario.N = 2
			}
			cand.Scenario.LeaverIndices = trimIndices(c.Scenario.LeaverIndices, cand.Scenario.N)
			if len(c.Scenario.LeaverIndices) > 0 && len(cand.Scenario.LeaverIndices) == 0 {
				break
			}
			if !interesting(cand) {
				break
			}
			c, improved = cand, true
		}

		// Pin the leaver set to explicit indices, then drop leavers one at a
		// time. Pinning skips the pattern's rng draws, so the corruption
		// stream shifts — the candidate is re-run and only accepted if it
		// still fails.
		if len(c.Scenario.LeaverIndices) == 0 {
			if idx := leaversOf(c); len(idx) > 0 {
				cand := c
				cand.Scenario.LeaverIndices = idx
				if interesting(cand) {
					c, improved = cand, true
				}
			}
		}
		for i := len(c.Scenario.LeaverIndices) - 1; i >= 0 && len(c.Scenario.LeaverIndices) > 1; i-- {
			cand := c
			cand.Scenario.LeaverIndices = append(append([]int{},
				c.Scenario.LeaverIndices[:i]...), c.Scenario.LeaverIndices[i+1:]...)
			if interesting(cand) {
				c, improved = cand, true
			}
		}

		if !improved || budget <= 0 {
			break
		}
	}
	return c, spent
}

// stillFails builds the candidate-acceptance predicate for a failure kind.
func stillFails(kind string, opts Options, spent, budget *int) func(Case) bool {
	sequentialOnly := kind == KindSafetySequential || kind == KindNoConvergence || kind == KindBuildError
	return func(cand Case) bool {
		if *budget <= 0 {
			return false
		}
		*budget--
		*spent++
		if sequentialOnly {
			if _, err := cand.Scenario.BuildScenario(); err != nil {
				// A candidate the builder rejects is progress only when the
				// bug being shrunk IS a builder rejection; for safety or
				// convergence failures it is a different (invalid) case.
				return kind == KindBuildError
			}
			if kind == KindBuildError {
				return false // builds fine now: the rejection is gone
			}
			out := diffval.Sequential(cand.diffConfig(opts), cand.Scenario.Seed).Outcome
			return out.SafetyViolated || !out.Converged
		}
		return Execute(cand, opts) != nil
	}
}

// trimIndices keeps the leaver indices still in range after halving.
func trimIndices(idx []int, n int) []int {
	var out []int
	for _, i := range idx {
		if i < n {
			out = append(out, i)
		}
	}
	return out
}

// leaversOf materializes the pattern-drawn leaver set of a case as explicit
// node indices, so the shrinker can drop leavers individually.
func leaversOf(c Case) []int {
	s, err := c.Scenario.BuildScenario()
	if err != nil {
		return nil
	}
	return s.LeaverIndexes()
}

// journal records the sequential run of a case through trace.RecordRun, with
// the options diffval's sequential side runs under (safety checked, the
// case's step budget), and returns the journal's bytes alongside the parsed
// form. The header carries every fired wave at the step it actually struck,
// so trace.VerifyReplay on the returned parts is the byte-identical
// reproduction check fdpreplay applies to committed fixtures.
func journal(c Case, opts Options) ([]byte, trace.Header, []trace.Record, error) {
	var buf bytes.Buffer
	runOpts := sim.RunOptions{CheckSafety: true, MaxSteps: c.diffConfig(opts).MaxSteps}
	if _, err := trace.RecordRun(c.Scenario, &buf, runOpts); err != nil {
		return nil, trace.Header{}, nil, err
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, trace.Header{}, nil, err
	}
	return buf.Bytes(), hdr, recs, nil
}

// FixtureJournal is the journal a failure of the given kind is committed
// with: the recorded sequential run of c, cut for a sequential safety
// failure to the shortest schedule prefix that still violates Lemma 2
// (ShrinkJournal). A fixed bug no longer violates, so its journal is the
// whole run. It returns the journal's bytes, its records, and how many
// records the cut dropped.
func FixtureJournal(kind string, c Case, opts Options) ([]byte, []trace.Record, int, error) {
	raw, hdr, recs, err := journal(c, opts)
	if err != nil || kind != KindSafetySequential {
		return raw, recs, 0, err
	}
	short, ok := ShrinkJournal(hdr, recs)
	if !ok {
		return raw, recs, 0, nil
	}
	var buf bytes.Buffer
	if err := trace.WriteJournal(&buf, hdr, short); err != nil {
		return nil, nil, 0, err
	}
	return buf.Bytes(), short, len(recs) - len(short), nil
}

// Unshown says why the sequential journal FixtureJournal records for a
// failure of kind on c cannot show that failure, or returns "" when it can. A
// concurrent safety violation is the runtime's alone, and so is a
// disagreement whose sequential side converged safely: a fixture of either
// would replay a run that stays correct. (A committed fixture of a fixed bug
// shows the fix, and is not asked.)
func Unshown(kind string, c Case, opts Options) string {
	switch kind {
	case KindSafetyConcurrent:
		return "the concurrent engine broke Lemma 2 and a sequential journal of the case stays safe"
	case KindDisagreement:
		if diffval.Sequential(c.diffConfig(opts), c.Scenario.Seed).Outcome.Converged {
			return "the sequential engine converged safely, so the disagreement lies on the concurrent side, which no journal replays"
		}
	}
	return ""
}

// ShrinkJournal truncates a sequential-safety journal to the shortest
// schedule prefix that still violates Lemma 2, using binary search: once a
// relevant process is disconnected it stays disconnected (references spread
// only by copy-store-send), so the violating prefix set is upward closed.
// The truncated journal replays byte-identically by construction — replay of
// a prefix schedule is the prefix of the replay. Returns the (possibly
// shortened) records and whether truncation applied.
func ShrinkJournal(hdr trace.Header, recs []trace.Record) ([]trace.Record, bool) {
	violates := func(rs []trace.Record) bool {
		scn, _, err := trace.ReplayWorld(hdr, rs)
		if err != nil || scn == nil {
			return false
		}
		return !scn.World.RelevantComponentsIntact()
	}
	if !violates(recs) {
		return recs, false
	}
	bounds := actionBoundaries(recs)
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if violates(recs[:bounds[mid]]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(bounds) {
		return recs, false
	}
	return recs[:bounds[lo]], bounds[lo] < len(recs)
}

// actionBoundaries returns, for each schedule action in the record stream,
// the record index just past the action and its consequence records — the
// positions a journal may be truncated at without splitting an atomic step.
func actionBoundaries(recs []trace.Record) []int {
	isAction := func(r trace.Record) bool {
		k, ok := kindOf(r)
		return ok && (k == sim.EvTimeout || k == sim.EvDeliver)
	}
	var bounds []int
	for i := range recs {
		if isAction(recs[i]) && i > 0 {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(recs))
	return bounds
}

func kindOf(r trace.Record) (sim.EventKind, bool) {
	for k := 0; k < sim.NumEventKinds; k++ {
		if sim.EventKind(k).String() == r.Kind {
			return sim.EventKind(k), true
		}
	}
	return 0, false
}
