package sim_test

import (
	"testing"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// TestSealedRefusesAfterEveryMutator: a freshly built world hands its seal
// out, queries leave it handed out, and each mutator makes Sealed refuse. A
// re-seal hands it out again only on a ledger seeded for it, under a new
// generation, and never while something is hosted elsewhere.
func TestSealedRefusesAfterEveryMutator(t *testing.T) {
	build := func() *churn.Scenario {
		return churn.Build(churn.Config{N: 40, Topology: churn.TopoRandom, LeaveFraction: 0.5,
			Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 6, Corrupt: churn.Corruption{JunkMessages: 10}})
	}
	sealed := func(w *sim.World) bool { _, _, gen := w.Sealed(); return gen != 0 }

	s := build()
	w := s.World
	led, comps, gen := w.Sealed()
	if gen == 0 || led == nil || led.Leavers() != len(s.LeavingNodes()) || len(comps) != 1 {
		t.Fatalf("a built world hands out gen %d, ledger %v, %d components", gen, led != nil, len(comps))
	}
	leaver := s.LeavingNodes()[0]
	w.LeaverRow(leaver)
	w.RelevantDegree(leaver)
	w.Legitimate(sim.FDP)
	w.RelevantComponentsIntact()
	w.Hibernating()
	w.PG()
	w.Clone()
	w.CloneLive(func(_ ref.Ref, _ sim.Mode, _ sim.Life, _ sim.Protocol, _ []sim.Message) {})
	if _, _, again := w.Sealed(); again != gen {
		t.Fatalf("queries moved the seal from generation %d to %d", gen, again)
	}

	stayer := s.StayingNodes()[0]
	junk := sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: leaver, Mode: sim.Leaving})
	for name, mutate := range map[string]func(s *churn.Scenario){
		"step": func(s *churn.Scenario) {
			a, _ := sim.NewRandomScheduler(1, 0).Next(s.World)
			s.World.Execute(a)
		},
		"Enqueue":      func(s *churn.Scenario) { s.World.Enqueue(stayer, junk) },
		"Inject":       func(s *churn.Scenario) { s.World.Inject(stayer, junk) },
		"InvalidatePG": func(s *churn.Scenario) { s.World.InvalidatePG() },
		"AddProcess":   func(s *churn.Scenario) { s.World.AddProcess(s.Space.New(), sim.Staying, core.New(core.VariantFDP)) },
		"ForceAsleep":  func(s *churn.Scenario) { s.World.ForceAsleep(stayer) },
		"MarkGone":     func(s *churn.Scenario) { s.World.MarkGone(leaver) },
		"HostElsewhere": func(s *churn.Scenario) {
			s.World.HostElsewhere(s.Space.New(), sim.Leaving)
		},
		"SetInitialComponents": func(s *churn.Scenario) {
			s.World.SetInitialComponents(s.World.InitialComponents())
		},
	} {
		s := build()
		_, _, first := s.World.Sealed()
		mutate(s)
		if sealed(s.World) {
			t.Errorf("%s left the seal handed out", name)
		}
		// A re-seal hands out only a ledger seeded for it: one the mutator
		// dropped, or left as it was seeded.
		s.World.SealInitialState()
		fresh := name == "InvalidatePG" || name == "AddProcess" || name == "SetInitialComponents"
		if got := sealed(s.World); got != fresh {
			t.Errorf("%s, then a re-seal: handed out %v, want %v", name, got, fresh)
		}
		s.World.InvalidatePG()
		s.World.SealInitialState()
		_, _, again := s.World.Sealed()
		if want := name != "HostElsewhere"; (again != 0) != want || want && again <= first {
			t.Errorf("%s, then a fresh re-seal: generation %d (first seal %d), want handed out %v", name, again, first, want)
		}
	}
}

// idle stores fixed references and does nothing: its timeout is a step that
// leaves every store and channel as it was.
type idle struct{ refs []ref.Ref }

func (p *idle) Timeout(sim.Context)              {}
func (p *idle) Deliver(sim.Context, sim.Message) {}
func (p *idle) Refs() []ref.Ref                  { return p.refs }

// TestSealedRefusesAfterAStepThatChangesNothing: a step whose action changes
// no edge moves no generation, and Sealed still refuses after it.
func TestSealedRefusesAfterAStepThatChangesNothing(t *testing.T) {
	rs := ref.NewSpace().NewN(2)
	w := sim.NewWorld(oracle.Single{})
	w.AddProcess(rs[0], sim.Leaving, &idle{refs: rs[1:]})
	w.AddProcess(rs[1], sim.Staying, &idle{})
	w.SealInitialState()
	led, _, gen := w.Sealed()
	if gen == 0 || led.Degree(rs[0]) != 1 {
		t.Fatalf("a sealed two-process world hands out generation %d", gen)
	}
	w.Execute(sim.Action{Proc: rs[1], IsTimeout: true})
	if _, _, after := w.Sealed(); after != 0 {
		t.Fatalf("a step left the seal handed out (generation %d)", after)
	}
}
