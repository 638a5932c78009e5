package experiments

import (
	"fdp/internal/app"
	"fdp/internal/graph"
	"fdp/internal/metrics"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// --- E15: what richer overlays buy lookups --------------------------------

// E15SkipHops compares end-to-end greedy lookup hop counts on the plain
// sorted list vs the two-level skip list, across system sizes: the level-1
// shortcuts roughly halve route lengths — the classic reason skip overlays
// exist, here demonstrated on stabilized overlays built by class-𝒫
// protocols.
func E15SkipHops(s Scale) Result {
	res := Result{
		ID:    "E15",
		Title: "Lookup hop counts: sorted list vs two-level skip list",
		Claim: "(extension) level-1 shortcuts roughly halve greedy route lengths",
		Pass:  true,
	}
	tb := metrics.NewTable("E15: mean hops for all-pairs lookups on converged overlays",
		"n", "list hops", "skip hops", "ratio")
	series := &metrics.Series{Name: "skip/list hop ratio vs n"}
	for _, n := range s.Sizes {
		listHops, ok1 := meanHops(n, false, s.MaxSteps)
		skipHops, ok2 := meanHops(n, true, s.MaxSteps)
		if !ok1 || !ok2 {
			res.Pass = false
			continue
		}
		ratio := skipHops / listHops
		tb.AddRow(n, listHops, skipHops, ratio)
		series.Append(float64(n), ratio)
		// The asymptotic ratio for a 1-level shortcut structure is 1/2; with
		// constant overheads anything clearly below 0.8 demonstrates the
		// effect.
		if n >= 16 && ratio > 0.8 {
			res.Pass = false
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Series = append(res.Series, series)
	res.note("lookups: every node looks up every key after the overlay converged")
	return res
}

// meanHops builds a converged overlay of size n and measures the mean hop
// count over all-pairs lookups.
func meanHops(n int, skip bool, maxSteps int) (float64, bool) {
	nodes := ref.NewSpace().NewN(n)
	keys := make(overlay.Keys, n)
	for i, r := range nodes {
		keys[r] = i
	}
	w := sim.NewWorld(nil)
	procs := make(map[ref.Ref]*app.Routed, n)
	for _, r := range nodes {
		var p *app.Routed
		if skip {
			p = app.NewRoutedSkip(keys)
		} else {
			p = app.NewRoutedList(keys)
		}
		procs[r] = p
		w.AddProcess(r, sim.Staying, &overlay.Standalone{P: p})
	}
	g := graph.Line(nodes)
	for _, e := range g.Edges() {
		procs[e.From].AddNeighbor(e.To)
	}
	w.SealInitialState()
	sched := sim.NewRandomScheduler(int64(n), 256)
	if !sim.Run(w, sched, sim.RunOptions{
		Variant: sim.FDP, MaxSteps: maxSteps, CheckEvery: n,
		Target: func(w *sim.World) bool { return overlay.CheckTarget(w, nodes) },
	}).Converged {
		return 0, false
	}
	launched := 0
	for _, from := range nodes {
		for k := 0; k < n; k++ {
			if keys[from] == k {
				continue
			}
			w.Enqueue(from, sim.Message{
				Label:   app.LabelRoute,
				Refs:    []sim.RefInfo{{Ref: from, Mode: sim.Staying}},
				Payload: app.RoutePayload{TargetKey: k, TTL: 4 * n},
			})
			launched++
		}
	}
	budget := w.Steps() + 400*n*n
	for w.Steps() < budget {
		a, ok := sched.Next(w)
		if !ok {
			break
		}
		w.Execute(a)
		if delivered(procs) >= launched {
			break
		}
	}
	var total app.Stats
	for _, p := range procs {
		st := p.Stats()
		total.Delivered += st.Delivered
		total.TotalHops += st.TotalHops
	}
	if total.Delivered != launched {
		return 0, false
	}
	return float64(total.TotalHops) / float64(total.Delivered), true
}

func delivered(procs map[ref.Ref]*app.Routed) int {
	n := 0
	for _, p := range procs {
		n += p.Stats().Delivered
	}
	return n
}
