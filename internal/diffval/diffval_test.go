package diffval

import (
	"bytes"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/faults"
	"fdp/internal/framework"
	"fdp/internal/oracle"
	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

func fdpConfig() Config {
	return Config{
		Scenario: churn.Config{
			N: 10, Topology: churn.TopoRandom, LeaveFraction: 0.4,
			Pattern: churn.LeaveRandom,
			Corrupt: churn.Corruption{FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: 4},
			Variant: core.VariantFDP, Oracle: oracle.Single{},
		},
	}
}

func fspConfig() Config {
	return Config{
		Scenario: churn.Config{
			N: 8, Topology: churn.TopoRandom, LeaveFraction: 0.5,
			Pattern: churn.LeaveRandom,
			Corrupt: churn.Corruption{FlipBeliefs: 0.25, JunkMessages: 3},
			Variant: core.VariantFSP,
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
	cfg.Waves = []faults.Wave{{Config: faults.Config{FlipBeliefs: 0.5, ScrambleAnchors: 0.5, JunkMessages: 5}, After: 60}}
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
	scn := cfg.Scenario
	scn.Seed = seed
	return uint64(churn.Build(scn).Leaving.Len())
}

// MirrorWorld must transplant the full state: modes, protocol clones (not
// aliases), sleep states, and channel contents. An FSP leaver with a queued
// message is put to sleep first — asleep, and still relevant — so the
// transplant has a sleeper to carry over.
func TestMirrorWorldTransplantsState(t *testing.T) {
	scn := fspConfig().Scenario
	var s *churn.Scenario
	var sleeper ref.Ref
	for scn.Seed = 3; sleeper.IsNil() && scn.Seed < 40; scn.Seed++ {
		s = churn.Build(scn)
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

// A wave train must hit both engines (same wave seeds) and the engines must
// still agree on the verdict.
func TestDifferentialWithWaveTrain(t *testing.T) {
	cfg := fdpConfig()
	cfg.Waves = []faults.Wave{
		{Config: faults.Config{FlipBeliefs: 0.4, JunkMessages: 3}, After: 60},
		{Config: faults.Config{ScrambleAnchors: 0.5, DuplicateMessages: 2}, After: 200},
	}
	assertAgreement(t, "wave-train", RunSeeds(cfg, 4), true)
}

// The sequential side of a verdict must be reproducible from its journal:
// Run with a Journal writer emits a replayable journal whose replay is
// byte-identical, including the strike steps.
func TestRunJournalReplays(t *testing.T) {
	cfg := fdpConfig()
	cfg.Waves = []faults.Wave{{Config: faults.Config{FlipBeliefs: 0.5, JunkMessages: 4}, After: 80}}
	var buf bytes.Buffer
	cfg.Journal = &buf
	v := Run(cfg, 3)
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal unreadable: %v", err)
	}
	if len(hdr.Scenario.Strikes) != 1 {
		t.Fatalf("journal strikes = %+v", hdr.Scenario.Strikes)
	}
	if got := uint64(len(recs)); got == 0 || v.Sequential.Steps == 0 {
		t.Fatalf("empty journal (%d recs, %d steps)", got, v.Sequential.Steps)
	}
	div, err := trace.VerifyReplay(hdr, recs)
	if err != nil {
		t.Fatalf("VerifyReplay: %v", err)
	}
	if div != nil {
		t.Fatalf("diffval journal diverged on replay: %+v", div)
	}
	// Determinism: journaling the same seed again is byte-identical.
	var again bytes.Buffer
	cfg.Journal = &again
	Run(cfg, 3)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-running the same seed changed the journal bytes")
	}
}

// Named schedulers change the explored sequential schedule but never the
// verdict agreement.
func TestDifferentialNamedSchedulers(t *testing.T) {
	for _, name := range []string{"fifo", "rounds", "adversarial"} {
		cfg := fdpConfig()
		cfg.Scheduler = name
		assertAgreement(t, "scheduler-"+name, RunSeeds(cfg, 2), true)
	}
}

// Theorem 4 on two engines: P′ over each overlay, from a random topology
// with 30 % leaving, reaches the same verdict on the sequential engine and
// on the runtime — Lemma 2, Lemma 3 and the staying processes in P's target
// topology — and converges. The scenario is a churn.Config like any other.
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
			vs := RunSeeds(Config{Scenario: churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.3,
				Oracle: oracle.Single{}, Overlay: kind,
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
