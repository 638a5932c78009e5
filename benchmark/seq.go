package main

import (
	"time"

	"fdp/internal/app"
	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/framework"
	"fdp/internal/overlay"
	"fdp/internal/sim"
)

// seqRun is what driving a sequential world to convergence yields.
type seqRun struct {
	exits     []float64 // wall seconds from the first step, per exited leaver
	converge  time.Duration
	converged bool
	steps     int // at convergence
	sent      uint64
}

// stepTimes splits the traced pass's step loop by callee.
type stepTimes struct {
	next, timeout, deliver time.Duration
	nTimeout, nDeliver     int
	legitimate             time.Duration
	nLegitimate            int
	ageHist                []uint32 // message age at delivery, in steps, capped
}

// ageCap bounds the age histogram: sim_churn converges in ~460k steps.
const ageCap = 1 << 20

// driveSeq is the benchmark's own step loop over the sequential engine:
// scheduler pick, Execute, exit detection (only the acting process can have
// exited), and the convergence predicate once no leaver remains — again
// every n steps while it does not hold. every, if set, runs before each
// step (overlay_lookup launches lookups from it). Traced, it times
// Scheduler.Next and World.Execute separately.
func driveSeq(b *bench, w *sim.World, sched sim.Scheduler, leavers, n int, deadline time.Duration,
	converged func() bool, every func(step int)) (seqRun, *stepTimes) {
	var r seqRun
	var st *stepTimes
	if b.traced {
		st = &stepTimes{ageHist: make([]uint32, ageCap+1)}
		w.AddEventHook(func(e sim.Event) {
			if e.Kind == sim.EvDeliver {
				st.ageHist[min(e.Age, ageCap)]++
			}
		})
	}
	check := func() bool {
		if st == nil {
			return converged()
		}
		start := time.Now()
		ok := converged()
		st.legitimate += time.Since(start)
		st.nLegitimate++
		return ok
	}
	remaining := leavers
	start := time.Now()
	stop := start.Add(deadline)
	for {
		step := w.Steps()
		if every != nil {
			every(step)
		}
		var a sim.Action
		var ok bool
		if st == nil {
			if a, ok = sched.Next(w); !ok {
				break
			}
			w.Execute(a)
		} else {
			t0 := time.Now()
			a, ok = sched.Next(w)
			t1 := time.Now()
			if !ok {
				break
			}
			w.Execute(a)
			t2 := time.Now()
			st.next += t1.Sub(t0)
			if a.IsTimeout {
				st.timeout += t2.Sub(t1)
				st.nTimeout++
			} else {
				st.deliver += t2.Sub(t1)
				st.nDeliver++
			}
			if step%sampleEvery == 0 {
				b.spans.add("sim.next", tidSim, t0, t1.Sub(t0))
				b.spans.add("sim.execute", tidSim, t1, t2.Sub(t1))
			}
		}
		exited := w.LifeOf(a.Proc) == sim.Gone
		if exited {
			remaining--
			r.exits = append(r.exits, time.Since(start).Seconds())
		}
		if remaining == 0 && (exited || (step+1)%n == 0) && check() {
			r.converged = true
			break
		}
		if step%1024 == 0 && time.Now().After(stop) {
			break
		}
	}
	r.converge = time.Since(start)
	r.steps = w.Steps()
	r.sent = w.Stats().Sent
	return r, st
}

// noteSim reports the sim layer of one trial.
func (b *bench) noteSim(r seqRun, st *stepTimes, w *sim.World, allocs uint64) {
	b.note("sim.steps", float64(r.steps))
	b.note("sim.steps_per_exit", ratio(float64(r.steps), float64(len(r.exits))))
	b.note("sim.sched_next_ns", ratio(float64(st.next), float64(st.nTimeout+st.nDeliver)))
	b.note("sim.execute_timeout_ns", ratio(float64(st.timeout), float64(st.nTimeout)))
	b.note("sim.execute_deliver_ns", ratio(float64(st.deliver), float64(st.nDeliver)))
	b.note("sim.allocs_per_step", ratio(float64(allocs), float64(r.steps)))
	b.note("sim.legitimate_ns", ratio(float64(st.legitimate), float64(st.nLegitimate)))
	b.note("sim.max_channel", float64(w.Stats().MaxChannel))
	p50, p99 := histPercentiles(st.ageHist)
	b.note("sim.msg_age_p50_steps", p50)
	b.note("sim.msg_age_p99_steps", p99)
}

// histPercentiles reads the nearest-rank p50 and p99 off a histogram
// indexed by value.
func histPercentiles(hist []uint32) (p50, p99 float64) {
	total := 0
	for _, c := range hist {
		total += int(c)
	}
	if total == 0 {
		return 0, 0
	}
	r50, r99 := (total+1)/2, (total*99+99)/100
	seen, got50 := 0, false
	for v, c := range hist {
		seen += int(c)
		if !got50 && seen >= r50 {
			p50, got50 = float64(v), true
		}
		if seen >= r99 {
			return p50, float64(v)
		}
	}
	return p50, float64(len(hist) - 1)
}

// finishSeq turns a sequential run into the trial's common fields and runs
// the world checks shared by both sequential workloads.
func finishSeq(t *trial, r seqRun, w *sim.World, leavers int) {
	t.exits, t.converge = r.exits, r.converge
	t.events, t.msgs = uint64(r.steps), r.sent
	t.ops, t.failed = leavers, leavers-len(r.exits)
	switch {
	case !w.RelevantComponentsIntact():
		t.problem = "safety: relevant processes disconnected (Lemma 2)"
	case t.failed > 0:
	case !r.converged || !w.Legitimate(sim.FDP):
		t.problem = "all leavers gone but the state is not legitimate"
	}
}

// runSim is one trial of sim_churn.
func runSim(b *bench, sz sizes, seed int64) trial {
	var t trial
	orc, timed := b.oracleFor()
	cal0 := hostSpeed()
	endSetup := b.span("setup")
	end := b.span("churn.build")
	scn := churn.Build(churnConfig(sz, seed, orc))
	b.note("churn.build_s", end().Seconds())
	sched := sim.NewRandomScheduler(seed, 0)
	w := scn.World
	leavers := len(scn.LeavingNodes())
	var judged verdicts
	if b.traced {
		w.SetOracleHook(judged.hook)
	}
	t.setup = endSetup()
	cal1 := hostSpeed()

	var allocs0 uint64
	if b.traced {
		allocs0, _ = mallocs()
	}
	endRun := b.span("run")
	r, st := driveSeq(b, w, sched, leavers, sz.n, sz.deadline,
		func() bool { return w.Legitimate(sim.FDP) }, nil)
	endRun()
	t.setupCal, t.runCal = window{cal0, cal1}, window{cal1, hostSpeed()}
	finishSeq(&t, r, w, leavers)
	if b.traced {
		allocs1, _ := mallocs()
		b.noteSim(r, st, w, allocs1-allocs0)
		b.noteOracle(timed, &judged, len(r.exits))
	}
	return t
}

// runOverlay is one trial of overlay_lookup: P' over a routed sorted list.
// Every 5n steps (a fixed logical schedule, regardless of outstanding
// lookups) the next of half the staying nodes launches a lookup to the node
// half-way round the key space, until the world is legitimate and in P's
// target topology; the run then drains, and the other half ask once each.
func runOverlay(b *bench, sz sizes, seed int64) trial {
	var t trial
	orc, timed := b.oracleFor()
	n := sz.n
	cal0 := hostSpeed()
	endSetup := b.span("setup")
	end := b.span("framework.build")
	sc := framework.Build(framework.Config{
		N: n, LeaveFraction: sz.leave, Variant: core.VariantFDP, Oracle: orc,
		Seed: seed, ExtraEdges: n / 2,
		MakeOverlay: func(keys overlay.Keys) overlay.Protocol { return app.NewRoutedList(keys) },
	})
	b.note("framework.build_s", end().Seconds())
	sched := sim.NewRandomScheduler(seed, 512)
	w := sc.World
	staying := sc.StayingNodes()
	routers := make([]*app.Routed, len(staying))
	for i, r := range staying {
		routers[i] = sc.Wrappers[r].Overlay().(*app.Routed)
	}
	leavers := n - len(staying)
	var judged verdicts
	if b.traced {
		w.SetOracleHook(judged.hook)
	}
	t.setup = endSetup()
	cal1 := hostSpeed()

	// Even-indexed staying nodes ask while the departures run; the odd-indexed
	// ones ask nothing until they are over. Their routers' counts are then the
	// owed lookups' alone, however late a departure-phase reply arrives.
	var asking, owing []int
	for i := range staying {
		if i%2 == 0 {
			asking = append(asking, i)
		} else {
			owing = append(owing, i)
		}
	}
	launch := func(i int) {
		from, target := staying[i], staying[(i+len(staying)/2)%len(staying)]
		w.Enqueue(from, sim.Message{
			Label:   app.LabelRoute,
			Refs:    []sim.RefInfo{{Ref: from, Mode: sim.Staying}},
			Payload: app.RoutePayload{TargetKey: sc.Keys[target], TTL: 4 * n},
		})
	}
	tally := func(origins []int) (s app.Stats) {
		for _, i := range origins {
			rs := routers[i].Stats()
			s.Delivered += rs.Delivered
			s.Failed += rs.Failed
			s.TotalHops += rs.TotalHops
		}
		return s
	}
	// settle steps on with no new lookups until want lookups of origins are
	// resolved (delivered or failed back) or none has resolved for quiet
	// steps.
	settle := func(origins []int, want, quiet int) app.Stats {
		got, last := tally(origins), w.Steps()
		for got.Delivered+got.Failed < want && w.Steps()-last < quiet {
			a, ok := sched.Next(w)
			if !ok {
				break
			}
			w.Execute(a)
			if w.Steps()%n == 0 {
				if now := tally(origins); now != got {
					got, last = now, w.Steps()
				}
			}
		}
		return got
	}

	launched := 0 // during the departures
	var allocs0 uint64
	if b.traced {
		allocs0, _ = mallocs()
	}
	endRun := b.span("run")
	r, st := driveSeq(b, w, sched, leavers, n, sz.deadline,
		func() bool { return w.Legitimate(sim.FDP) && sc.InTarget() },
		func(step int) {
			if step > 0 && step%(5*n) == 0 {
				launch(asking[launched%len(asking)])
				launched++
			}
		})
	endRun()
	t.setupCal, t.runCal = window{cal0, cal1}, window{cal1, hostSpeed()}
	var allocs1 uint64
	if b.traced {
		allocs1, _ = mallocs()
	}

	// Lookups launched while leavers were still present may be swallowed (a
	// next hop that turned out to be leaving drops the saved message, and P'
	// fuses identical saved messages), so the departure phase's delivered
	// share is a measurement, not a pass/fail operation.
	endDrain := b.span("drain")
	drainStart := time.Now()
	during := settle(asking, launched, 100*n)
	wall := r.converge + time.Since(drainStart)
	endDrain()

	// The operation the application is owed: once the departures are over,
	// one lookup from every node that has not asked yet must be delivered.
	endAfter := b.span("check.lookups")
	for _, i := range owing {
		launch(i)
	}
	owed := len(owing)
	delivered := settle(owing, owed, 1000*n).Delivered
	endAfter()

	finishSeq(&t, r, w, leavers)
	t.ops += owed
	t.failed += owed - delivered
	switch {
	case t.problem != "" || t.failed > 0:
	case !sc.InTarget():
		t.problem = "converged but the staying processes left P's target topology"
	case during.Delivered+during.Failed > launched || delivered > owed:
		t.problem = "more lookups resolved than were launched"
	}
	if b.traced {
		b.noteSim(r, st, w, allocs1-allocs0)
		b.noteOracle(timed, &judged, len(r.exits))
		b.note("framework.steps_to_target", float64(r.steps))
		b.note("framework.steps_per_exit", ratio(float64(r.steps), float64(len(r.exits))))
		b.note("app.hops_mean", ratio(float64(during.TotalHops), float64(during.Delivered)))
		b.note("app.failed_share", ratio(float64(during.Failed), float64(launched)))
		b.note("app.lookups_per_s", ratio(float64(during.Delivered+during.Failed), wall.Seconds()))
		b.note("app.lookup_ok_share", ratio(float64(during.Delivered), float64(launched)))
	}
	return t
}
