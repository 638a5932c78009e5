package framework

import (
	"testing"

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
	s := Build(Config{
		N: 8, Overlay: OverlayLinearize, LeaveFraction: 0.4,
		Oracle: oracle.Single{}, Seed: 0, ExtraEdges: 4,
	})
	sched := sim.NewRandomScheduler(0, 256)
	for s.World.Steps() < 400000 {
		a, ok := sched.Next(s.World)
		if !ok {
			break
		}
		s.World.Execute(a)
		if s.World.Steps()%20000 == 0 {
			st := s.World.Stats()
			t.Logf("step=%d legit=%v target=%v leavers=%d pending=%d inflight=%d phi=%d sentByLabel=%v",
				s.World.Steps(), s.World.Legitimate(sim.FDP), s.InTarget(),
				s.World.LeavingRemaining(), pendingTotal(s), st.TotalInQueue, core.Phi(s.World), st.SentByLabel)
			for _, r := range s.Nodes {
				if s.World.LifeOf(r) == sim.Gone {
					continue
				}
				wr := s.Wrappers[r]
				t.Logf("  node=%v mode=%v ch=%d mlist=%d inner=%d refs=%d anchor=%v",
					r, s.World.ModeOf(r), s.World.ChannelLen(r), wr.PendingCount(),
					len(wr.Overlay().Refs()), len(wr.Refs()), wr.Anchor())
			}
		}
		if s.World.Steps()%1000 == 0 && s.World.Legitimate(sim.FDP) && s.InTarget() {
			t.Logf("converged at step %d", s.World.Steps())
			return
		}
	}
	t.Fatalf("no convergence: legit=%v target=%v leavers=%d pending=%d",
		s.World.Legitimate(sim.FDP), s.InTarget(), s.World.LeavingRemaining(), pendingTotal(s))
}
