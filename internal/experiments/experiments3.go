package experiments

import (
	"fmt"

	"fdp/internal/app"
	"fdp/internal/check"
	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/faults"
	"fdp/internal/framework"
	"fdp/internal/metrics"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// --- E12: application availability under departures ----------------------

// E12Routing measures lookup availability over a wrapped routed-list
// overlay in three phases: mid-churn (departures in flight), and after
// convergence. Lookups swallowed by leaving receivers count as lost — the
// application-level cost of churn that safe departures bound.
func E12Routing(s Scale) Result {
	res := Result{
		ID:    "E12",
		Title: "Lookup availability under departures (application layer)",
		Claim: "after safe departures, greedy routing over the staying overlay is fully available again",
		Pass:  true,
	}
	n := s.Sizes[min(1, len(s.Sizes)-1)]
	tb := metrics.NewTable(fmt.Sprintf("E12: greedy lookups over the wrapped sorted list (n=%d, 30%% leaving, totals over %d seeds)", n, s.Trials),
		"phase", "launched", "delivered", "failed", "lost", "mean hops")
	type phaseTotals struct{ launched, delivered, failed, hops int }
	var during, after phaseTotals

	for trial := 0; trial < s.Trials; trial++ {
		sc := framework.Of(churn.Build(churn.Config{
			N: n, Topology: churn.TopoRandom, LeaveFraction: 0.3, Oracle: oracle.Single{},
			Seed:    int64(trial),
			Overlay: framework.Factory(func(keys overlay.Keys) overlay.Protocol { return app.NewRoutedList(keys) }),
		}))
		sched := sim.NewRandomScheduler(int64(trial), 512)
		staying := sc.StayingNodes()
		routers := func() map[ref.Ref]*app.Routed {
			out := make(map[ref.Ref]*app.Routed, len(staying))
			for _, r := range staying {
				out[r] = sc.Wrappers[r].Overlay().(*app.Routed)
			}
			return out
		}()
		snapshot := func() phaseTotals {
			var t phaseTotals
			for _, r := range routers {
				st := r.Stats()
				t.delivered += st.Delivered
				t.failed += st.Failed
				t.hops += st.TotalHops
			}
			return t
		}
		launchAll := func() int {
			count := 0
			for i, from := range staying {
				target := staying[(i+len(staying)/2)%len(staying)]
				sc.World.Enqueue(from, sim.Message{
					Label:   app.LabelRoute,
					Refs:    []sim.RefInfo{{Ref: from, Mode: sim.Staying}},
					Payload: app.RoutePayload{TargetKey: sc.Keys[target], TTL: 4 * n},
				})
				count++
			}
			return count
		}

		// Phase 1: mid-churn — a short prefix of the run, then lookups.
		step(sc, sched, 5*n)
		base := snapshot()
		during.launched += launchAll()
		sim.Run(sc.World, sched, sim.RunOptions{Variant: sim.FDP, MaxSteps: s.MaxSteps, Target: sc.Scenario.InTarget})
		drained := snapshot()
		during.delivered += drained.delivered - base.delivered
		during.failed += drained.failed - base.failed
		during.hops += drained.hops - base.hops

		// Phase 2: after convergence — full availability expected.
		base = snapshot()
		launched := launchAll()
		after.launched += launched
		step(sc, sched, 200*n)
		finals := snapshot()
		after.delivered += finals.delivered - base.delivered
		after.failed += finals.failed - base.failed
		after.hops += finals.hops - base.hops
	}

	row := func(name string, t phaseTotals) {
		lost := t.launched - t.delivered - t.failed
		mean := 0.0
		if t.delivered > 0 {
			mean = float64(t.hops) / float64(t.delivered)
		}
		tb.AddRow(name, t.launched, t.delivered, t.failed, lost, mean)
	}
	row("during departures", during)
	row("after convergence", after)
	res.Tables = append(res.Tables, tb)
	if after.delivered != after.launched {
		res.Pass = false // availability must be total once converged
	}
	if during.delivered+during.failed > during.launched {
		res.Pass = false // accounting sanity
	}
	res.note("lost = swallowed by leaving receivers mid-churn; must be 0 after convergence")
	return res
}

func step(sc *framework.Scenario, sched sim.Scheduler, steps int) {
	for i := 0; i < steps; i++ {
		a, ok := sched.Next(sc.World)
		if !ok {
			return
		}
		sc.World.Execute(a)
	}
}

// --- E13: transient-fault recovery ----------------------------------------

// E13Faults strikes a converged system with transient faults of increasing
// intensity and measures re-convergence (the self-stabilization property in
// its original sense: recovery from transient faults, not just bad starts).
//
// The FSP variant is the interesting target: after convergence the leavers
// are hibernating (asleep but present), so a strike can scramble their
// anchors, flip beliefs about them, and inject junk messages that wake them
// — and the system must put every leaver back to permanent sleep. (In the
// FDP a converged system has no leavers left: any strike leaves the state
// trivially legitimate, so there would be nothing to measure. The FDP's
// mid-run fault tolerance is covered by E4's corrupted *initial* states,
// which are exactly "post-fault" states.)
func E13Faults(s Scale) Result {
	res := Result{
		ID:    "E13",
		Title: "Recovery from transient faults at runtime (FSP)",
		Claim: "self-stabilization: the protocol re-converges after any transient state corruption",
		Pass:  true,
	}
	n := s.Sizes[min(1, len(s.Sizes)-1)]
	tb := metrics.NewTable(fmt.Sprintf("E13: strike intensity vs recovery (FSP, n=%d, means over %d seeds)", n, s.Trials),
		"intensity", "beliefs flipped", "anchors scrambled", "junk msgs", "woken leavers", "recovery steps", "failures")
	for _, intensity := range []float64{0.25, 0.5, 1.0} {
		var flips, anchors, junk, woken, recovery metrics.Sample
		failures := 0
		for trial := 0; trial < s.Trials; trial++ {
			sc := churn.Build(churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.4,
				Pattern: churn.LeaveRandom, Variant: core.VariantFSP,
				Seed: int64(trial) + 500,
			})
			sched := sim.NewRandomScheduler(int64(trial)+500, 512)
			first := sim.Run(sc.World, sched, sim.RunOptions{
				Variant: sim.FSP, MaxSteps: s.MaxSteps,
			})
			if !first.Converged {
				failures++
				res.Pass = false
				continue
			}
			wakesBefore := sc.World.Stats().Wakes
			inj := faults.New(faults.Config{
				FlipBeliefs:     intensity,
				ScrambleAnchors: intensity,
				JunkMessages:    int(intensity * float64(n)),
			}, int64(trial)+900)
			rep := inj.Strike(sc.World)
			flips.AddInt(rep.BeliefsFlipped)
			anchors.AddInt(rep.AnchorsScrambled)
			junk.AddInt(rep.MessagesInjected)
			before := sc.World.Steps()
			second := sim.Run(sc.World, sched, sim.RunOptions{
				Variant: sim.FSP, MaxSteps: before + s.MaxSteps, CheckSafety: true,
			})
			if !second.Converged || second.SafetyViolation != nil {
				failures++
				res.Pass = false
				continue
			}
			woken.AddInt(int(sc.World.Stats().Wakes - wakesBefore))
			recovery.AddInt(second.Steps - before)
		}
		tb.AddRow(intensity, flips.Mean(), anchors.Mean(), junk.Mean(), woken.Mean(), recovery.Mean(), failures)
	}
	res.Tables = append(res.Tables, tb)
	res.note("junk messages wake hibernating leavers; all must return to permanent sleep")
	return res
}

// --- E14: exhaustive schedule checking ------------------------------------

// E14ModelCheck runs the bounded explicit-state model checker on the
// minimal dangerous instance (line of three, middle leaving): every
// schedule up to the depth bound is safe with SINGLE, and the checker
// exhibits a concrete unsafe schedule with the constant-true oracle.
func E14ModelCheck() Result {
	res := Result{
		ID:    "E14",
		Title: "Exhaustive schedule exploration (bounded model checking)",
		Claim: "safety holds on EVERY schedule (not just sampled ones); without the oracle it provably does not",
		Pass:  true,
	}
	tb := metrics.NewTable("E14: line of 3, middle node leaving, all schedules",
		"oracle", "depth", "states", "violation found", "legitimate states reached")
	for _, row := range []struct {
		name   string
		orc    sim.Oracle
		depth  int
		unsafe bool
	}{
		{"SINGLE", oracle.Single{}, 12, false},
		{"TRUE (unsafe)", oracle.Always(true), 10, true},
	} {
		s := churn.Build(churn.Config{N: 3, Topology: churn.TopoLine, LeaverIndices: []int{1}, Oracle: row.orc})
		out := check.Explore(s.World, check.Options{
			MaxDepth:         row.depth,
			MaxStates:        500000,
			Invariant:        check.SafetyInvariant(),
			Variant:          sim.FDP,
			StopAtLegitimate: true,
		})
		tb.AddRow(row.name, row.depth, out.StatesExplored, !out.OK(), out.LegitimateStates)
		if out.OK() == row.unsafe || (!row.unsafe && out.LegitimateStates == 0) {
			res.Pass = false
		}
	}
	res.Tables = append(res.Tables, tb)
	res.note("the TRUE row's violation is the 2-action schedule: leaver funnels, then exits")
	return res
}
