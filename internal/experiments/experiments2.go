package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"fdp/internal/baseline"
	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/diffval"
	"fdp/internal/framework"
	"fdp/internal/graph"
	"fdp/internal/metrics"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// --- E7: Theorem 4 — the framework P' -----------------------------------

// E7Embedding runs the three wrapped overlay protocols under departures and
// corruption, measuring steps until both the FDP legitimacy predicate holds
// and the staying processes form P's target topology.
func E7Embedding(s Scale) Result {
	res := Result{
		ID:    "E7",
		Title: "Embedding into overlay protocols (Theorem 4)",
		Claim: "P' solves the FDP and still solves P's own problem",
		Pass:  true,
	}
	n := s.Sizes[min(1, len(s.Sizes)-1)]
	tb := metrics.NewTable("E7: wrapped overlays under departures (means)",
		"overlay", "n", "converged", "steps", "messages", "verify msgs")
	for _, kind := range []framework.OverlayKind{
		framework.OverlayLinearize, framework.OverlayRing,
		framework.OverlaySkip, framework.OverlayClique,
	} {
		// The clique overlay's P-traffic is Θ(n²) per timeout; run it at a
		// reduced size so the suite stays responsive (noted in the table).
		n := n
		if kind == framework.OverlayClique && n > 10 {
			n = 10
		}
		var steps, msgs, verifies metrics.Sample
		allOK := true
		for trial := 0; trial < s.Trials; trial++ {
			sc := churn.Build(churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.4,
				Oracle: oracle.Single{}, Seed: int64(trial), Overlay: kind,
				Corrupt: churn.Corruption{RandomAnchors: 0.3, JunkPending: 4},
			})
			run := sim.Run(sc.World, sim.NewRandomScheduler(int64(trial)+7, 512), sim.RunOptions{
				Variant: sim.FDP, MaxSteps: s.MaxSteps, CheckSafety: true, Target: sc.InTarget,
			})
			if !run.Converged {
				allOK = false
				res.Pass = false
				continue
			}
			steps.AddInt(run.Steps)
			msgs.AddInt(int(run.Stats.Sent))
			verifies.AddInt(int(run.Stats.SentByLabel[framework.LabelVerify]))
		}
		tb.AddRow(kind.String(), n, allOK, steps.Mean(), msgs.Mean(), verifies.Mean())
	}
	res.Tables = append(res.Tables, tb)
	res.note("converged means: leavers gone AND staying nodes form P's target topology")
	return res
}

// --- E8: the FSP variant -------------------------------------------------

// E8FSP runs the sleep variant without any oracle and verifies that all
// leavers end hibernating.
func E8FSP(s Scale) Result {
	res := Result{
		ID:    "E8",
		Title: "Finite Sleep Problem without an oracle (Section 4)",
		Claim: "replacing exit with sleep removes the need for any oracle",
		Pass:  true,
	}
	tb := metrics.NewTable("E8: FSP runs (no oracle, corrupted states, means)",
		"n", "converged", "steps", "hibernating leavers", "gone")
	for _, n := range s.Sizes {
		var steps metrics.Sample
		allOK := true
		hibTotal, leaversTotal, goneTotal := 0, 0, 0
		for trial := 0; trial < s.Trials; trial++ {
			sc := churn.Build(churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.5,
				Pattern: churn.LeaveRandom, Variant: core.VariantFSP,
				Corrupt: churn.Corruption{FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: n / 2},
				Seed:    int64(trial) + 11,
			})
			r := sim.Run(sc.World, sim.NewRandomScheduler(int64(trial)+11, 512), sim.RunOptions{
				Variant: sim.FSP, MaxSteps: s.MaxSteps, CheckSafety: true,
			})
			if !r.Converged || r.SafetyViolation != nil {
				allOK = false
				res.Pass = false
				continue
			}
			steps.AddInt(r.Steps)
			hib := sc.World.Hibernating()
			for _, l := range sc.LeavingNodes() {
				leaversTotal++
				if hib.Has(l) {
					hibTotal++
				}
			}
			goneTotal += sc.World.GoneCount()
		}
		tb.AddRow(n, allOK, steps.Mean(), fmt.Sprintf("%d/%d", hibTotal, leaversTotal), goneTotal)
		if goneTotal != 0 || hibTotal != leaversTotal {
			res.Pass = false
		}
	}
	res.Tables = append(res.Tables, tb)
	res.note("expected: every leaver hibernating, zero gone (exit unavailable)")
	return res
}

// --- E9: comparison with Foreback et al. [15] ----------------------------

// E9Baseline compares the universal protocol against the sorted-list
// baseline on the baseline's home turf: departures from a clean sorted
// list, and from corrupted states where the baseline's assumptions break.
func E9Baseline(s Scale) Result {
	res := Result{
		ID:    "E9",
		Title: "Universal protocol vs Foreback et al. [15] baseline",
		Claim: "the universal protocol matches the baseline on lists without needing its total order",
		Pass:  true,
	}
	n := s.Sizes[min(1, len(s.Sizes)-1)]
	tb := metrics.NewTable(fmt.Sprintf("E9: departures from a sorted list (n=%d, 30%% leaving, means)", n),
		"protocol", "oracle", "needs key order", "converged", "steps", "messages")

	var uniSteps, uniMsgs metrics.Sample
	uniOK := true
	for trial := 0; trial < s.Trials; trial++ {
		out := runFDP(churn.Config{
			N: n, Topology: churn.TopoLine, LeaveFraction: 0.3,
			Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: int64(trial),
		}, s.MaxSteps)
		if !out.converged || !out.safety {
			uniOK = false
			res.Pass = false
			continue
		}
		uniSteps.AddInt(out.steps)
		uniMsgs.AddInt(int(out.messages))
	}
	tb.AddRow("universal (this paper)", "SINGLE", false, uniOK, uniSteps.Mean(), uniMsgs.Mean())

	var bSteps, bMsgs metrics.Sample
	bOK := true
	for trial := 0; trial < s.Trials; trial++ {
		ok, steps, msgs := runBaselineList(n, 0.3, int64(trial), s.MaxSteps)
		if !ok {
			bOK = false
			res.Pass = false
			continue
		}
		bSteps.AddInt(steps)
		bMsgs.AddInt(int(msgs))
	}
	tb.AddRow("Foreback et al. [15]", "NIDEC", true, bOK, bSteps.Mean(), bMsgs.Mean())
	res.Tables = append(res.Tables, tb)
	res.note("both should converge on the list; the universal protocol additionally works on every topology (E4)")

	// E9b: robustness to arbitrary initial in-flight messages. The baseline
	// trusts depart announcements and deletes references outright, so junk
	// departures can disconnect it; the universal protocol's handlers only
	// move references (four primitives) and cannot.
	tb2 := metrics.NewTable(fmt.Sprintf("E9b: junk in-flight messages in the initial state (n=%d, %d seeds)", n, s.Trials*3),
		"protocol", "runs", "safety violations")
	// Violations surface early; a corrupted baseline run that merely fails
	// to converge is not the measurement here, so a modest budget suffices.
	junkBudget := 300 * n * n
	if junkBudget > s.MaxSteps {
		junkBudget = s.MaxSteps
	}
	uniViol, baseViol := 0, 0
	for trial := 0; trial < s.Trials*3; trial++ {
		out := runFDP(churn.Config{
			N: n, Topology: churn.TopoLine, LeaveFraction: 0.3,
			Pattern: churn.LeaveRandom,
			Corrupt: churn.Corruption{JunkMessages: 2 * n},
			Oracle:  oracle.Single{}, Seed: int64(trial) + 70,
		}, junkBudget)
		if !out.safety {
			uniViol++
		}
		if baselineJunkViolates(n, int64(trial)+70, junkBudget) {
			baseViol++
		}
	}
	tb2.AddRow("universal (this paper)", s.Trials*3, uniViol)
	tb2.AddRow("Foreback et al. [15]", s.Trials*3, baseViol)
	res.Tables = append(res.Tables, tb2)
	if uniViol > 0 {
		res.Pass = false
	}
	if baseViol == 0 {
		// The contrast is the point: the baseline must be breakable by
		// junk departure announcements, or this row demonstrates nothing.
		res.note("WARNING: no baseline violation observed at this scale")
	}
	res.note("junk depart announcements make the baseline delete load-bearing references; the universal protocol only ever moves them")
	return res
}

// baselineJunkViolates runs the baseline from a clean list plus junk depart
// announcements and reports whether relevant processes got disconnected.
func baselineJunkViolates(n int, seed int64, maxSteps int) bool {
	space := ref.NewSpace()
	nodes := space.NewN(n)
	keys := make(overlay.Keys, n)
	for i, r := range nodes {
		keys[r] = i
	}
	g := graph.Line(nodes)
	w := sim.NewWorld(oracle.NIDEC{})
	procs := make(map[ref.Ref]*baseline.Proc, n)
	rng := rand.New(rand.NewSource(seed))
	leaving := ref.NewSet()
	for _, i := range rng.Perm(n)[:int(0.3*float64(n))] {
		leaving.Add(nodes[i])
	}
	for _, r := range nodes {
		p := baseline.New(keys)
		procs[r] = p
		mode := sim.Staying
		if leaving.Has(r) {
			mode = sim.Leaving
		}
		w.AddProcess(r, mode, p)
	}
	for _, e := range g.Edges() {
		procs[e.From].AddNeighbor(e.To)
	}
	// Junk departure announcements — a perfectly legal "arbitrary initial
	// state". The symmetric pair below claims two adjacent list members are
	// departing from each other with no replacement: each deletes its edge
	// to the other, severing the list. The universal protocol cannot be
	// damaged this way (its handlers only move references); the baseline
	// trusts announcements and deletes.
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 && i+1 < n {
			w.Enqueue(nodes[i], sim.NewMessage(baseline.LabelDepart,
				sim.RefInfo{Ref: nodes[i+1], Mode: sim.Leaving}))
			w.Enqueue(nodes[i+1], sim.NewMessage(baseline.LabelDepart,
				sim.RefInfo{Ref: nodes[i], Mode: sim.Leaving}))
		}
		to := nodes[rng.Intn(n)]
		victim := nodes[rng.Intn(n)]
		rep := nodes[rng.Intn(n)]
		w.Enqueue(to, sim.NewMessage(baseline.LabelDepart,
			sim.RefInfo{Ref: victim, Mode: sim.Leaving},
			sim.RefInfo{Ref: rep, Mode: sim.Unknown}))
	}
	w.SealInitialState()
	r := sim.Run(w, sim.NewRandomScheduler(seed, 512), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: maxSteps, CheckSafety: true,
	})
	return r.SafetyViolation != nil
}

func runBaselineList(n int, frac float64, seed int64, maxSteps int) (bool, int, uint64) {
	space := ref.NewSpace()
	nodes := space.NewN(n)
	keys := make(overlay.Keys, n)
	for i, r := range nodes {
		keys[r] = i
	}
	g := graph.Line(nodes)
	w := sim.NewWorld(oracle.NIDEC{})
	procs := make(map[ref.Ref]*baseline.Proc, n)
	k := int(frac * float64(n))
	leaving := ref.NewSet()
	for i := 0; i < k; i++ {
		leaving.Add(nodes[(i*2+1)%n])
	}
	for _, r := range nodes {
		p := baseline.New(keys)
		procs[r] = p
		mode := sim.Staying
		if leaving.Has(r) {
			mode = sim.Leaving
		}
		w.AddProcess(r, mode, p)
	}
	for _, e := range g.Edges() {
		procs[e.From].AddNeighbor(e.To)
	}
	w.SealInitialState()
	r := sim.Run(w, sim.NewRandomScheduler(seed, 512), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: maxSteps, CheckSafety: true,
	})
	return r.Converged && r.SafetyViolation == nil, r.Steps, r.Stats.Sent
}

// --- E10: oracle ablation -------------------------------------------------

// E10Oracles compares SINGLE against the ideal safety oracle, a timeout
// approximation, and the unsafe constant-true oracle.
func E10Oracles(s Scale) Result {
	res := Result{
		ID:    "E10",
		Title: "Oracle ablation",
		Claim: "SINGLE is sufficient; weaker oracles are unsafe, stronger ones no faster",
		Pass:  true,
	}
	n := s.Sizes[min(1, len(s.Sizes)-1)]
	tb := metrics.NewTable(fmt.Sprintf("E10: oracle comparison (n=%d line, articulation leavers)", n),
		"oracle", "runs", "safety violations", "convergence failures", "mean steps")
	type oracleCase struct {
		name       string
		mk         func() sim.Oracle
		expectSafe bool
	}
	cases := []oracleCase{
		{"SINGLE", func() sim.Oracle { return oracle.Single{} }, true},
		{"EXITSAFE (ideal)", func() sim.Oracle { return oracle.ExitSafe{} }, true},
		{"SINGLE~timeout(5)", func() sim.Oracle { return oracle.NewTimeoutSingle(5) }, true},
		{"TRUE (no oracle guard)", func() sim.Oracle { return oracle.Always(true) }, false},
	}
	for _, c := range cases {
		violations, failures := 0, 0
		var steps metrics.Sample
		trials := s.Trials * 3
		for trial := 0; trial < trials; trial++ {
			sc := churn.Build(churn.Config{
				N: n, Topology: churn.TopoLine, LeaveFraction: 0.4,
				Pattern: churn.LeaveArticulation, Oracle: c.mk(), Seed: int64(trial),
			})
			// Sampled safety checking suffices: a disconnection among
			// relevant processes is permanent (copy-store-send protocols
			// cannot re-invent lost references), so it cannot be missed.
			r := sim.Run(sc.World, sim.NewRandomScheduler(int64(trial), 256), sim.RunOptions{
				Variant: sim.FDP, MaxSteps: s.MaxSteps, CheckSafety: true,
			})
			if r.SafetyViolation != nil {
				violations++
				continue
			}
			if !r.Converged {
				failures++
				continue
			}
			steps.AddInt(r.Steps)
		}
		tb.AddRow(c.name, trials, violations, failures, steps.Mean())
		if c.expectSafe && (violations > 0 || failures > 0) {
			res.Pass = false
		}
		if !c.expectSafe && violations == 0 {
			// The unsafe oracle demonstrates that safety depends on the
			// oracle; zero violations would make that claim vacuous.
			res.Pass = false
		}
	}
	res.Tables = append(res.Tables, tb)
	res.note("TRUE row demonstrates why an oracle is needed at all (impossibility of [15])")
	return res
}

// --- E11: concurrent runtime ----------------------------------------------

// E11Parallel cross-validates the sharded M:N runtime and measures its
// event throughput.
func E11Parallel(s Scale) Result {
	res := Result{
		ID:    "E11",
		Title: "Concurrent runtime cross-validation and throughput",
		Claim: "the protocol converges under true parallel asynchrony (sharded M:N runtime)",
		Pass:  true,
	}
	tb := metrics.NewTable("E11: sharded-runtime runs (50% leaving, random topology)",
		"n", "converged", "exits ok", "events executed", "events/sec")
	for _, n := range s.Sizes {
		scn := churn.Build(benchScenario(n, int64(n)))
		leavingCount := len(scn.LeavingNodes())
		rt := diffval.MirrorWorld(scn.World, scn.Config.Oracle)
		start := time.Now()
		ok := rt.RunUntil(func(w *sim.World) bool {
			return w.Legitimate(sim.FDP)
		}, 2*time.Millisecond, 60*time.Second)
		elapsed := time.Since(start).Seconds()
		if !ok {
			res.Pass = false
		}
		exitsOK := rt.Gone() == uint64(leavingCount)
		if !exitsOK {
			res.Pass = false
		}
		rate := float64(rt.Events()) / elapsed
		tb.AddRow(n, ok, exitsOK, rt.Events(), rate)
	}
	res.Tables = append(res.Tables, tb)
	res.note("throughput is events (atomic actions) per wall-clock second across all cores")
	return res
}
