package fuzz

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"fdp/internal/diffval"
	"fdp/internal/faults"
	"fdp/internal/trace"
)

// livelockCase seeds the canonical liveness bug: MUTANT-SINGLE-NEVER denies
// every exit, so the protocol keeps delegating and re-asking forever —
// messages flow, grants never come, nobody settles. The dual of the
// MUTANT-SINGLE safety anchor (which grants too much), it anchors the
// watchdog the same way: a watchdog that cannot classify this livelock
// cannot be trusted to explain a real stuck run.
func livelockCase(seed int64) Case {
	return Case{Scenario: trace.Scenario{
		N: 8, Topology: "line", LeaveFraction: 0.5, Pattern: "random",
		Variant: "FDP", Oracle: MutantSingleNever{}.Name(),
		Seed: seed, Scheduler: "random",
	}}
}

func livelockConfig(c Case) diffval.Config {
	cfg := c.diffConfig(Options{MaxSteps: 20000, Timeout: 3 * time.Second})
	// Tight windows so the stall is classified well inside the budget, and
	// a ring big enough that the sequential snapshot stays a complete
	// (replayable) prefix.
	cfg.StallSteps = 1500
	cfg.FlightK = 1 << 16
	return cfg
}

// TestWatchdogClassifiesSeededLivelock re-injects the liveness mutant and
// demands the full observability chain: both engines stall, the watchdog
// calls it a livelock (not starvation, not a bare deadline), the verdict
// carries window evidence, and the sequential flight dump is a complete
// journal fragment that satisfies the byte-identical replay contract —
// exactly what fdpreplay needs to step through the stuck run.
func TestWatchdogClassifiesSeededLivelock(t *testing.T) {
	c := livelockCase(23)
	v := diffval.Run(livelockConfig(c), c.Scenario.Seed)

	if v.Sequential.Converged || v.Concurrent.Converged {
		t.Fatalf("never-granting oracle converged: seq=%+v conc=%+v", v.Sequential, v.Concurrent)
	}
	if v.Sequential.SafetyViolated || v.Concurrent.SafetyViolated {
		t.Fatal("liveness mutant violated safety — it must only deny")
	}
	if v.Sequential.Stall != "livelock" {
		t.Fatalf("sequential stall = %q, want livelock", v.Sequential.Stall)
	}
	if v.Concurrent.Stall != "livelock" {
		t.Fatalf("concurrent stall = %q, want livelock", v.Concurrent.Stall)
	}

	rep := v.SequentialStall
	if rep == nil {
		t.Fatal("no sequential stall report")
	}
	if rep.Verdict.WindowDenials == 0 || rep.Verdict.WindowGrants != 0 {
		t.Fatalf("verdict evidence inconsistent with a livelock: %s", rep.Verdict)
	}
	if rep.Verdict.LeaversRemaining == 0 {
		t.Fatalf("livelock verdict with no leavers remaining: %s", rep.Verdict)
	}
	if len(rep.Flight) == 0 {
		t.Fatal("stall report carries no flight records")
	}
	if rep.Spans == "" {
		t.Fatal("stall report carries no departure span trees")
	}
	if !rep.Complete {
		t.Fatalf("flight ring wrapped (%d records) — FlightK too small for the stall window", len(rep.Flight))
	}
	if rep.Header.Engine != trace.EngineSim || rep.Header.Scenario.Oracle != (MutantSingleNever{}).Name() {
		t.Fatalf("flight header does not name the run: %+v", rep.Header)
	}
	div, err := trace.VerifyReplay(rep.Header, rep.Flight)
	if err != nil {
		t.Fatalf("VerifyReplay on flight dump: %v", err)
	}
	if div != nil {
		t.Fatalf("flight dump diverged under replay: %v", div)
	}

	crep := v.ConcurrentStall
	if crep == nil {
		t.Fatal("no concurrent stall report")
	}
	if crep.Verdict.Kind.String() != "livelock" || len(crep.Flight) == 0 {
		t.Fatalf("concurrent report incomplete: kind=%v flight=%d", crep.Verdict.Kind, len(crep.Flight))
	}

	// The fuzzer's classifier surfaces the diagnosis in its failure note.
	f := classify(c, v)
	if f == nil || f.Kind != KindNoConvergence {
		t.Fatalf("classify = %+v, want no-convergence", f)
	}
	if !strings.Contains(f.Note, "sequential=livelock") {
		t.Fatalf("failure note %q does not carry the watchdog diagnosis", f.Note)
	}
}

// TestWatchdogLivelockDeterministic: both sides of the seeded livelock run
// on seeded schedules, so two runs must produce identical stall verdicts and
// flight dumps on each engine — the property that makes a stall fragment a
// shareable, re-runnable bug report.
func TestWatchdogLivelockDeterministic(t *testing.T) {
	c := livelockCase(23)
	v1 := diffval.Run(livelockConfig(c), c.Scenario.Seed)
	v2 := diffval.Run(livelockConfig(c), c.Scenario.Seed)
	for _, side := range []struct {
		name   string
		r1, r2 *diffval.StallReport
	}{
		{"sequential", v1.SequentialStall, v2.SequentialStall},
		{"concurrent", v1.ConcurrentStall, v2.ConcurrentStall},
	} {
		if side.r1 == nil || side.r2 == nil {
			t.Fatalf("missing %s stall report", side.name)
		}
		if side.r1.Verdict != side.r2.Verdict {
			t.Fatalf("%s verdicts differ across identical runs:\n %s\n %s", side.name, side.r1.Verdict, side.r2.Verdict)
		}
		if !reflect.DeepEqual(side.r1.Flight, side.r2.Flight) {
			t.Fatalf("%s flight dumps differ across identical runs (%d vs %d records)", side.name, len(side.r1.Flight), len(side.r2.Flight))
		}
	}
	if v1.Concurrent.Steps != v2.Concurrent.Steps {
		t.Fatalf("concurrent runs executed %d and %d events", v1.Concurrent.Steps, v2.Concurrent.Steps)
	}
}

// A struck run's stall fragment is a replayable prefix too: its header lists
// exactly the waves that fired before the stalled step, the first here, and
// not the one due after it.
func TestWatchdogStruckFragmentReplays(t *testing.T) {
	c := livelockCase(23)
	c.Scenario.Strikes = []faults.Wave{
		{After: 500, Config: faults.Config{FlipBeliefs: 0.5, JunkMessages: 3}},
		{After: 12000, Config: faults.Config{ScrambleAnchors: 0.5}},
	}
	cfg := livelockConfig(c)
	cfg.Timeout = 300 * time.Millisecond
	v := diffval.Run(cfg, c.Scenario.Seed)
	if v.Sequential.Stall != "livelock" {
		t.Fatalf("sequential stall = %q, want livelock", v.Sequential.Stall)
	}
	rep := v.SequentialStall
	if rep == nil || !rep.Complete {
		t.Fatalf("no complete sequential stall report: %+v", rep)
	}
	if got := rep.Header.Scenario.Strikes; len(got) != 1 || got[0].After != 500 {
		t.Fatalf("fragment header strikes = %+v, want the wave at step 500 only (stall at step %d)", got, rep.Verdict.Step)
	}
	if div, err := trace.VerifyReplay(rep.Header, rep.Flight); err != nil || div != nil {
		t.Fatalf("struck flight dump does not replay: div=%v err=%v", div, err)
	}
}
