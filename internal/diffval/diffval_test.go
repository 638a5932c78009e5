package diffval

import (
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/faults"
	"fdp/internal/framework"
	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

func fdpConfig() Config {
	return Config{
		Scenario: trace.Scenario{
			N: 10, Topology: "random", LeaveFraction: 0.4, Pattern: "random",
			FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: 4,
			Variant: "FDP", Oracle: "SINGLE",
		},
	}
}

func fspConfig() Config {
	return Config{
		Scenario: trace.Scenario{
			N: 8, Topology: "random", LeaveFraction: 0.5, Pattern: "random",
			FlipBeliefs: 0.25, JunkMessages: 3,
			Variant: "FSP",
		},
	}
}

func assertAgreement(t *testing.T, name string, vs []Verdict, wantConverged bool) {
	t.Helper()
	for _, v := range vs {
		if !v.Agree() {
			t.Errorf("%s seed %d: engines disagree:\n  sequential %+v\n  concurrent %+v",
				name, v.Seed, v.Sequential, v.Concurrent)
			continue
		}
		if v.Sequential.SafetyViolated {
			t.Errorf("%s seed %d: safety violated: %+v", name, v.Seed, v.Sequential)
		}
		if wantConverged && !v.Sequential.Converged {
			t.Errorf("%s seed %d: no convergence: seq %+v conc %+v",
				name, v.Seed, v.Sequential, v.Concurrent)
		}
		if wantConverged && !v.Sequential.LeaversSettled {
			t.Errorf("%s seed %d: leavers not settled: %+v", name, v.Seed, v.Sequential)
		}
	}
}

// The tentpole check: 30 FDP seeds with corrupted initial states must
// produce identical verdicts on both engines — converged, safe, all leavers
// gone, staying components preserved.
func TestDifferentialFDP(t *testing.T) {
	vs := RunSeeds(fdpConfig(), 30)
	assertAgreement(t, "fdp", vs, true)
	for _, v := range vs {
		want := goneWanted(fdpConfig(), v.Seed)
		if v.Concurrent.Gone != want {
			t.Errorf("fdp seed %d: concurrent gone=%d, want %d leavers departed", v.Seed, v.Concurrent.Gone, want)
		}
	}
}

// 20 FSP seeds: no exits on either side, every leaver hibernating.
func TestDifferentialFSP(t *testing.T) {
	vs := RunSeeds(fspConfig(), 20)
	assertAgreement(t, "fsp", vs, true)
	for _, v := range vs {
		if v.Sequential.Gone != 0 || v.Concurrent.Gone != 0 {
			t.Errorf("fsp seed %d: FSP must not produce gone processes: %+v / %+v",
				v.Seed, v.Sequential, v.Concurrent)
		}
	}
}

// A mid-run transient fault must not break the agreement: both engines are
// struck with the same fault class and both must re-converge safely.
func TestDifferentialWithStrike(t *testing.T) {
	cfg := fdpConfig()
	cfg.Scenario.Strikes = []faults.Wave{{After: 60, Config: faults.Config{FlipBeliefs: 0.5, ScrambleAnchors: 0.5, JunkMessages: 5}}}
	vs := RunSeeds(cfg, 8)
	assertAgreement(t, "strike", vs, true)
}

// The deadline must stay observable across sequential wait phases: when
// the strike-budget wait consumes the whole budget, the convergence wait
// must still return promptly instead of ticking forever on a drained
// one-shot timer channel.
func TestWaitForSharedDeadlineBoundsBothPhases(t *testing.T) {
	deadline := make(chan struct{})
	timer := time.AfterFunc(5*time.Millisecond, func() { close(deadline) })
	defer timer.Stop()

	never := func() bool { return false }
	if waitFor(never, time.Millisecond, deadline) {
		t.Fatal("first phase: cond never holds, waitFor must report false")
	}
	done := make(chan bool, 1)
	go func() { done <- waitFor(never, time.Millisecond, deadline) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("second phase: cond never holds, waitFor must report false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second phase hung: expired deadline not observed after the first phase consumed it")
	}
}

// goneWanted recomputes the scenario's leaver count for a seed.
func goneWanted(cfg Config, seed int64) uint64 {
	cfg.Scenario.Seed = seed
	return uint64(cfg.build().Leaving.Len())
}

// sleeperScenario builds an FSP scenario in which a leaver with a queued
// message has been put to sleep — asleep, and still relevant — so that a
// mirror of it has a sleeper with mail to carry over.
func sleeperScenario(t *testing.T) (*churn.Scenario, ref.Ref) {
	t.Helper()
	cfg := fspConfig()
	var s *churn.Scenario
	var sleeper ref.Ref
	for cfg.Scenario.Seed = 3; sleeper.IsNil() && cfg.Scenario.Seed < 40; cfg.Scenario.Seed++ {
		s = cfg.build()
		for _, u := range s.LeavingNodes() {
			if s.World.ChannelLen(u) > 0 {
				sleeper = u
				break
			}
		}
	}
	if sleeper.IsNil() {
		t.Fatal("no FSP scenario with a leaver that has a queued message")
	}
	s.World.ForceAsleep(sleeper)
	return s, sleeper
}

// MirrorWorld must transplant the full state: modes, protocol clones (not
// aliases), sleep states, and channel contents.
func TestMirrorWorldTransplantsState(t *testing.T) {
	s, sleeper := sleeperScenario(t)
	rt := MirrorWorld(s.World, nil)

	w := rt.Freeze()
	if w.LifeOf(sleeper) != sim.Asleep || w.ChannelLen(sleeper) == 0 {
		t.Fatalf("the runtime's frozen world shows %v %v with %d queued messages; want asleep with its mail",
			sleeper, w.LifeOf(sleeper), w.ChannelLen(sleeper))
	}
	if len(w.Refs()) != len(s.World.Refs()) {
		t.Fatalf("process count differs: %d vs %d", len(w.Refs()), len(s.World.Refs()))
	}
	for _, r := range s.World.Refs() {
		if w.ModeOf(r) != s.World.ModeOf(r) {
			t.Fatalf("mode of %v differs", r)
		}
		if w.LifeOf(r) != s.World.LifeOf(r) {
			t.Fatalf("life of %v differs: %v vs %v", r, w.LifeOf(r), s.World.LifeOf(r))
		}
		if got, want := w.ChannelLen(r), s.World.ChannelLen(r); got != want {
			t.Fatalf("channel of %v differs: %d vs %d", r, got, want)
		}
	}
	// The transplant must be a clone: corrupting the runtime's copy must not
	// leak back into the source world's protocol state.
	r0 := s.Nodes[0]
	extra := s.Space.New()
	rt.Mutate(func(v *parallel.MutableView) {
		v.ProtocolOf(r0).(*core.Proc).SetNeighbor(extra, sim.Staying)
	})
	for _, held := range s.Procs[0].Refs() {
		if held == extra {
			t.Fatal("MirrorWorld aliased protocol state instead of cloning it")
		}
	}
}

// MirrorWorld copies out of its source and writes nothing back: once the
// runtime it built has run to legitimacy, the source world's fingerprint is
// what it was, and the source still converges on the sequential engine.
func TestMirrorWorldLeavesItsSourceUntouched(t *testing.T) {
	s, _ := sleeperScenario(t)
	before := s.World.Fingerprint()
	rt := MirrorWorld(s.World, nil)
	legit := func(w *sim.World) bool { return w.Legitimate(sim.FSP) }
	if !rt.RunSeeded(1, legit, time.Millisecond, 10*time.Second) {
		t.Fatal("the mirrored runtime never reached a legitimate state")
	}
	if s.World.Fingerprint() != before {
		t.Fatal("running the mirror changed the source world")
	}
	res := sim.Run(s.World, sim.NewRandomScheduler(1, 0),
		sim.RunOptions{Variant: sim.FSP, MaxSteps: 400000, CheckSafety: true})
	if !res.Converged || res.SafetyViolation != nil {
		t.Fatalf("the source world no longer converges: %+v", res)
	}
}

// A wave train must hit both engines (same wave seeds) and the engines must
// still agree on the verdict.
func TestDifferentialWithWaveTrain(t *testing.T) {
	cfg := fdpConfig()
	cfg.Scenario.Strikes = []faults.Wave{
		{After: 60, Config: faults.Config{FlipBeliefs: 0.4, JunkMessages: 3}},
		{After: 200, Config: faults.Config{ScrambleAnchors: 0.5, DuplicateMessages: 2}},
	}
	assertAgreement(t, "wave-train", RunSeeds(cfg, 4), true)
}

// Named schedulers change the explored sequential schedule but never the
// verdict agreement.
func TestDifferentialNamedSchedulers(t *testing.T) {
	for _, name := range []string{"fifo", "rounds", "adversarial"} {
		cfg := fdpConfig()
		cfg.Scenario.Scheduler = name
		assertAgreement(t, "scheduler-"+name, RunSeeds(cfg, 2), true)
	}
}

// Theorem 4 on two engines: P′ over each overlay, from a random topology
// with 30 % leaving, reaches the same verdict on the sequential engine and
// on the runtime — Lemma 2, Lemma 3 and the staying processes in P's target
// topology — and converges. The scenario is a trace.Scenario like any other.
// -short runs 5 seeds per overlay instead of 50.
func TestDifferentialOverlay(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 5
	}
	for _, kind := range framework.Overlays() {
		n := 16
		if kind == framework.OverlayClique {
			n = 8 // Θ(n²) P traffic per timeout
		}
		t.Run(kind.String(), func(t *testing.T) {
			vs := RunSeeds(Config{Scenario: trace.Scenario{
				N: n, Topology: "random", LeaveFraction: 0.3, Pattern: "random",
				Variant: "FDP", Oracle: "SINGLE", Overlay: kind.String(),
			}}, seeds)
			assertAgreement(t, kind.String(), vs, true)
			for _, v := range vs {
				if !v.Sequential.InTarget {
					t.Errorf("%v seed %d: staying processes not in the target topology: %+v", kind, v.Seed, v.Sequential)
				}
			}
		})
	}
}
