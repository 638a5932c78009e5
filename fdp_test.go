package fdp

import (
	"errors"
	"testing"
	"time"
)

func TestSimulateDefaults(t *testing.T) {
	rep, err := Simulate(Config{
		N: 12, Topology: Random, LeaveFraction: 0.5,
		Seed: 1, CheckSafety: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("default FDP run did not converge")
	}
	if rep.Exits != 6 {
		t.Fatalf("exits = %d, want 6", rep.Exits)
	}
	if rep.SafetyViolated {
		t.Fatal("safety violated with SINGLE oracle")
	}
	if rep.MessagesSent == 0 || rep.MessagesByLabel["present"] == 0 {
		t.Fatal("message accounting empty")
	}
}

func TestSimulateFSP(t *testing.T) {
	rep, err := Simulate(Config{
		N: 10, Topology: Ring, LeaveFraction: 0.4, Variant: FSP,
		Seed: 2, CheckSafety: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Exits != 0 {
		t.Fatalf("FSP run wrong: %+v", rep)
	}
}

func TestSimulateAllSchedulers(t *testing.T) {
	for _, s := range []Scheduler{SchedRandom, SchedRounds, SchedAdversarial, SchedFIFO} {
		rep, err := Simulate(Config{
			N: 10, Topology: Line, LeaveFraction: 0.3, Scheduler: s,
			Seed: 3, CheckSafety: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged {
			t.Fatalf("scheduler %d did not converge", s)
		}
	}
	rep, _ := Simulate(Config{N: 6, Topology: Line, LeaveFraction: 0.3, Scheduler: SchedRounds, Seed: 4})
	if rep.Rounds == 0 {
		t.Fatal("round scheduler must report rounds")
	}
}

func TestSimulateCorrupted(t *testing.T) {
	rep, err := Simulate(Config{
		N: 14, Topology: Random, LeaveFraction: 0.5,
		CorruptBeliefs: 0.6, CorruptAnchors: 0.6, JunkMessages: 20,
		Seed: 5, CheckSafety: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.SafetyViolated {
		t.Fatalf("corrupted run wrong: %+v", rep)
	}
}

func TestSimulateUnsafeOracleCanViolate(t *testing.T) {
	violated := false
	for seed := int64(0); seed < 20 && !violated; seed++ {
		rep, err := Simulate(Config{
			N: 9, Topology: Line, LeaveFraction: 0.4, Pattern: LeaveArticulation,
			Oracle: OracleUnsafe, Seed: seed, CheckSafety: true, MaxSteps: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		violated = rep.SafetyViolated
	}
	if !violated {
		t.Fatal("OracleUnsafe never violated safety — the guard would be vacuous")
	}
}

func TestSimulateBadConfig(t *testing.T) {
	if _, err := Simulate(Config{N: 0}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("N=0 must be rejected")
	}
	if _, err := Simulate(Config{N: 5, LeaveFraction: 1.5}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("bad fraction must be rejected")
	}
	// A topology the size cannot host is the builder's typed error, not its
	// panic — on every entry point that builds.
	if _, err := Simulate(Config{N: 12, Topology: Hypercube}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("hypercube on 12 nodes: err = %v", err)
	}
	if _, err := SimulateParallel(Config{N: 12, Topology: Hypercube}, time.Second); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("parallel hypercube on 12 nodes: err = %v", err)
	}
	if _, err := CheckSchedules(CheckConfig{N: 3, Leavers: 1, Topology: Hypercube}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("checker hypercube on 3 nodes: err = %v", err)
	}
	if _, err := CheckSchedules(CheckConfig{N: 3, Leavers: 1, Oracle: OracleTimeoutSingle}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("checker with a stateful oracle: err = %v", err)
	}
	if _, err := SimulateOverlay(OverlayConfig{N: 0}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("overlay N=0 must be rejected")
	}
	if _, err := Morph(0, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatal("morph n=0 must be rejected")
	}
	if _, err := Morph(3, EdgeList{{0, 9}}, EdgeList{{0, 1}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("out-of-range edges must be rejected")
	}
	if _, err := SimulateParallel(Config{N: 0}, time.Second); !errors.Is(err, ErrBadConfig) {
		t.Fatal("parallel N=0 must be rejected")
	}
}

func TestSimulateOverlayAllKinds(t *testing.T) {
	for _, o := range []Overlay{Linearize, SortRing, CliqueTC, SkipList} {
		rep, err := SimulateOverlay(OverlayConfig{
			N: 10, Overlay: o, LeaveFraction: 0.3, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged || !rep.TargetReached {
			t.Fatalf("overlay %d: %+v", o, rep)
		}
		if rep.Exits != 3 {
			t.Fatalf("overlay %d: exits = %d, want 3", o, rep.Exits)
		}
	}
}

func TestMorphLineToRing(t *testing.T) {
	line := EdgeList{{0, 1}, {1, 2}, {2, 3}}
	ring := EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	rep, err := Morph(4, line, ring)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPrimitives() == 0 {
		t.Fatal("a nontrivial morph must apply primitives")
	}
	if rep.CliqueRounds > 4 {
		t.Fatalf("clique rounds = %d for n=4", rep.CliqueRounds)
	}
}

func TestMorphIdentity(t *testing.T) {
	g := EdgeList{{0, 1}, {1, 0}}
	rep, err := Morph(2, g, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPrimitives() != 0 {
		t.Fatal("identity morph should be free")
	}
}

func TestSimulateParallelSmoke(t *testing.T) {
	rep, err := SimulateParallel(Config{N: 10, LeaveFraction: 0.4, Seed: 7}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Exits != 4 {
		t.Fatalf("parallel run wrong: %+v", rep)
	}
}

func TestExperimentsQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	reports := Experiments(true)
	if len(reports) != 16 {
		t.Fatalf("suite has %d experiments, want 16", len(reports))
	}
	for _, r := range reports {
		if !r.Pass {
			t.Errorf("%s (%s) failed", r.ID, r.Title)
		}
		if len(r.Tables) == 0 {
			t.Errorf("%s has no tables", r.ID)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{N: 12, Topology: Random, LeaveFraction: 0.5,
		CorruptBeliefs: 0.4, Seed: 9}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.MessagesSent != b.MessagesSent {
		t.Fatal("same seed must reproduce the run exactly")
	}
}

func TestCheckSchedulesSafe(t *testing.T) {
	rep, err := CheckSchedules(CheckConfig{N: 3, Leavers: 1, Depth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatalf("SINGLE must be safe on every schedule: %s", rep.Counterexample)
	}
	if rep.StatesExplored == 0 || rep.LegitimateStates == 0 {
		t.Fatalf("exploration empty: %+v", rep)
	}
}

func TestCheckSchedulesCounterexample(t *testing.T) {
	rep, err := CheckSchedules(CheckConfig{N: 3, Leavers: 1, Depth: 8, Oracle: OracleUnsafe})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Fatal("the unsafe oracle must yield a counterexample")
	}
	if rep.Counterexample == "" {
		t.Fatal("counterexample schedule missing")
	}
}

func TestCheckSchedulesFSP(t *testing.T) {
	rep, err := CheckSchedules(CheckConfig{N: 3, Leavers: 1, Depth: 10, Variant: FSP})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatal("FSP must be safe on every schedule")
	}
}

func TestCheckSchedulesBadConfig(t *testing.T) {
	if _, err := CheckSchedules(CheckConfig{N: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("N=1 must be rejected")
	}
	if _, err := CheckSchedules(CheckConfig{N: 3, Leavers: 3}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("all-leaving must be rejected")
	}
}
