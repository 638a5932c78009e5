package framework

import (
	"testing"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/sim"
)

// TestDebugSingleScenario runs one small scenario to convergence and, every
// 20k steps, logs a progress line per process (mlist length, P's and the
// wrapper's reference counts, anchor). It converges in a few thousand steps,
// so it runs with every go test (not under -short); as a diagnostic, run it
// alone with -run DebugSingle -v.
func TestDebugSingleScenario(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := build(churn.Config{
		N: 8, Topology: churn.TopoRandom, Overlay: OverlayLinearize, LeaveFraction: 0.4,
		Oracle: oracle.Single{}, Seed: 0,
	})
	res := sim.Run(s.World, sim.NewRandomScheduler(0, 256), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 400000, CheckEvery: 1000, Target: s.Scenario.InTarget,
		OnStep: func(w *sim.World) {
			if w.Steps()%20000 != 0 {
				return
			}
			st := w.Stats()
			t.Logf("step=%d legit=%v target=%v leavers=%d pending=%d inflight=%d phi=%d sentByLabel=%v",
				w.Steps(), w.Legitimate(sim.FDP), s.InTarget(),
				w.LeavingRemaining(), pendingTotal(s), st.TotalInQueue, core.Phi(w), st.SentByLabel)
			for _, r := range s.Nodes {
				if w.LifeOf(r) == sim.Gone {
					continue
				}
				wr := s.Wrappers[r]
				t.Logf("  node=%v mode=%v ch=%d mlist=%d inner=%d refs=%d anchor=%v",
					r, w.ModeOf(r), w.ChannelLen(r), wr.PendingCount(),
					len(wr.Overlay().Refs()), len(wr.Refs()), wr.Anchor())
			}
		},
	})
	if !res.Converged {
		t.Fatalf("no convergence: legit=%v target=%v leavers=%d pending=%d",
			s.World.Legitimate(sim.FDP), s.InTarget(), s.World.LeavingRemaining(), pendingTotal(s))
	}
	t.Logf("converged at step %d", res.Steps)
}
