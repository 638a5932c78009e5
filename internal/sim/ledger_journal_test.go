package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fdp/internal/churn"
	"fdp/internal/faults"
	"fdp/internal/framework"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// journalOf runs w to convergence under sched and returns its journal.
// A queried run also checks Lemma 2 at every legitimacy check, asks every
// leaver's NIDEC verdict after every step and the whole-graph queries every
// 97 steps.
func journalOf(t *testing.T, w *sim.World, sched sim.Scheduler, queried bool) ([]byte, sim.RunResult) {
	t.Helper()
	var buf bytes.Buffer
	jw := trace.NewWriter(&buf, trace.Header{Version: trace.Version, Engine: trace.EngineSim})
	w.AddEventHook(jw.Record)
	opts := sim.RunOptions{Variant: sim.FDP, MaxSteps: 50000}
	if queried {
		opts.CheckSafety = true
		opts.OnStep = func(w *sim.World) {
			if w.Steps()%97 == 0 {
				w.PG()
				w.RelevantPG()
				w.Relevant()
				w.Hibernating()
			}
			for _, r := range w.Refs() {
				if w.ModeOf(r) == sim.Leaving && w.LifeOf(r) != sim.Gone {
					w.NIDEC(r)
				}
			}
		}
	}
	res := sim.Run(w, sched, opts)
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestLedgerAndPGJournalsAreIdentical: the same seed run twice, once asking
// nothing and once asking every query (journalOf), must journal byte for
// byte the same run, and both must end on the ledger — under every
// scheduler, on a corrupted churn scenario and on P' over a sorted list.
func TestLedgerAndPGJournalsAreIdentical(t *testing.T) {
	scheds := map[string]func() sim.Scheduler{
		"random":      func() sim.Scheduler { return sim.NewRandomScheduler(5, 64) },
		"adversarial": func() sim.Scheduler { return sim.NewAdversarialScheduler(5, 64) },
		"rounds":      func() sim.Scheduler { return sim.NewRoundScheduler() },
		"fifo":        func() sim.Scheduler { return sim.NewFIFOScheduler() },
	}
	worlds := map[string]func() *sim.World{
		"churn": func() *sim.World {
			return churn.Build(churn.Config{
				N: 48, Topology: churn.TopoRandom, LeaveFraction: 0.5, Pattern: churn.LeaveRandom,
				Oracle: oracle.Single{}, Seed: 5,
				Corrupt: churn.Corruption{FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: 24},
			}).World
		},
		"framework": func() *sim.World {
			return churn.Build(churn.Config{
				N: 16, Topology: churn.TopoRandom, LeaveFraction: 0.3, Oracle: oracle.Single{},
				Seed: 1, Overlay: framework.OverlayLinearize,
			}).World
		},
	}
	for _, wn := range []string{"churn", "framework"} {
		for _, sn := range []string{"random", "adversarial", "rounds", "fifo"} {
			t.Run(wn+"/"+sn, func(t *testing.T) {
				plain, queried := worlds[wn](), worlds[wn]()
				a, ra := journalOf(t, plain, scheds[sn](), false)
				b, rb := journalOf(t, queried, scheds[sn](), true)
				if ra.Converged != rb.Converged || ra.Stats.Exits == 0 || rb.SafetyViolation != nil {
					t.Fatalf("converged: plain %v, queried %v (%v); %d exits", ra.Converged, rb.Converged, rb.SafetyViolation, ra.Stats.Exits)
				}
				for _, w := range []*sim.World{plain, queried} {
					if st := sim.DegreeState(w); st != "ledger" {
						t.Fatalf("world ended on %q, want the ledger", st)
					}
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("journals differ: %d bytes asking nothing, %d asking every query", len(a), len(b))
				}
			})
		}
	}
}

// checkDegrees compares every live leaver's RelevantDegree with its degree
// in a built PG (nothing sleeps in these runs).
func checkDegrees(t *testing.T, w *sim.World, where string) {
	t.Helper()
	pg := w.PG()
	for _, r := range w.Refs() {
		if w.ModeOf(r) != sim.Leaving || w.LifeOf(r) == sim.Gone {
			continue
		}
		if d, ok := w.RelevantDegree(r); !ok || d != pg.Degree(r) {
			t.Fatalf("%s: RelevantDegree(%v) = %d, %v; rebuilt PG %d", where, r, d, ok, pg.Degree(r))
		}
	}
}

// TestLedgerAfterStrike: a fault strike rewrites protocol state outside any
// action; its InvalidatePG drops the ledger and its re-seal seeds a fresh
// one, whose degrees and components match the built PG from then on.
func TestLedgerAfterStrike(t *testing.T) {
	s := churn.Build(churn.Config{
		N: 40, Topology: churn.TopoRandom, LeaveFraction: 0.5, Pattern: churn.LeaveRandom,
		Oracle: oracle.Single{}, Seed: 3,
	})
	w := s.World
	sched := sim.NewRandomScheduler(3, 64)
	step := func(n int, where string) {
		for i := 0; i < n; i++ {
			a, ok := sched.Next(w)
			if !ok {
				return
			}
			w.Execute(a)
			checkDegrees(t, w, fmt.Sprintf("%s, step %d", where, w.Steps()))
		}
	}
	step(200, "before the strike")
	faults.New(faults.Config{FlipBeliefs: 0.5, ScrambleAnchors: 0.5, JunkMessages: 20, DuplicateMessages: 10}, 9).Strike(w)
	if st := sim.DegreeState(w); st != "ledger" {
		t.Fatalf("after the strike's re-seal the world is on %q, want a fresh ledger", st)
	}
	if got, want := w.InitialComponents(), w.PG().WeaklyConnectedComponents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-sealed components %v, rebuilt PG %v", got, want)
	}
	checkDegrees(t, w, "after the strike")
	step(2000, "after the strike")
	if st := sim.DegreeState(w); st != "ledger" {
		t.Fatalf("world on %q after the run, want the ledger", st)
	}
}

// TestInitialComponentsOfEveryTopology: SealInitialState's union-find
// partition equals the rebuilt PG's weakly connected components element for
// element on every scenario topology, multi-component and corrupted ones
// included.
func TestInitialComponentsOfEveryTopology(t *testing.T) {
	for _, topo := range churn.Topologies() {
		t.Run(topo.String(), func(t *testing.T) {
			s, err := churn.TryBuild(churn.Config{
				N: 32, Topology: topo, LeaveFraction: 0.4, Oracle: oracle.Single{}, Seed: 2, Components: 2,
				Corrupt: churn.Corruption{RandomAnchors: 0.5, JunkMessages: 16},
			})
			if err != nil {
				t.Fatal(err)
			}
			got, want := s.World.InitialComponents(), s.World.PG().WeaklyConnectedComponents()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("SealInitialState %v, rebuilt PG %v", got, want)
			}
			if len(got) < 2 {
				t.Fatalf("%d components, want at least the 2 built", len(got))
			}
			var all []ref.Ref
			for _, c := range got {
				all = append(all, c...)
			}
			if len(all) != 32 {
				t.Fatalf("components hold %d processes, want 32", len(all))
			}
		})
	}
}

// TestRunTimeQueriesBuildNoGraph: what a run asks while it runs — the Lemma
// 2 check of CheckSafety, a leaver's NIDEC verdict — allocates nothing on an
// FDP churn world at n = 1000: the ledger rows and the union-find answer,
// and no graph is built.
func TestRunTimeQueriesBuildNoGraph(t *testing.T) {
	s := churn.Build(churn.Config{
		N: 1000, Topology: churn.TopoRandom, LeaveFraction: 0.5, Pattern: churn.LeaveRandom,
		Oracle: oracle.Single{}, Seed: 6,
	})
	w := s.World
	sched := sim.NewRandomScheduler(6, 64)
	for i := 0; i < 5000; i++ {
		a, ok := sched.Next(w)
		if !ok {
			t.Fatal("quiescent")
		}
		w.Execute(a)
	}
	if n := testing.AllocsPerRun(20, func() { w.RelevantComponentsIntact() }); n != 0 {
		t.Errorf("RelevantComponentsIntact allocates %.0f times", n)
	}
	var judged []ref.Ref // live leavers with an empty channel, judged on their rows
	for _, u := range s.LeavingNodes() {
		if w.LifeOf(u) != sim.Gone && w.ChannelLen(u) == 0 {
			judged = append(judged, u)
		}
	}
	if len(judged) == 0 {
		t.Fatal("no live leaver with an empty channel to judge")
	}
	o := oracle.NIDEC{}
	if n := testing.AllocsPerRun(20, func() {
		for _, u := range judged {
			o.Evaluate(w, u)
		}
	}); n != 0 {
		t.Errorf("NIDEC.Evaluate of %d leavers allocates %.0f times", len(judged), n)
	}
}
