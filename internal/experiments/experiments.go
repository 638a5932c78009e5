// Package experiments implements the reproduction suite E1–E16 described in
// DESIGN.md: one experiment per formal claim of the paper, each regenerating
// a table (and, where a trend is claimed, a data series standing in for a
// figure). The paper is a brief announcement without an evaluation section,
// so these are the tables/figures its claims imply; EXPERIMENTS.md records
// the measured outcomes.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/graph"
	"fdp/internal/metrics"
	"fdp/internal/oracle"
	"fdp/internal/primitives"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Scale selects the experiment size.
type Scale struct {
	// Sizes are the system sizes n swept by the scaling experiments.
	Sizes []int
	// Trials is the number of seeds per configuration.
	Trials int
	// MaxSteps bounds each simulation run.
	MaxSteps int
}

// Quick is the CI-friendly scale.
func Quick() Scale { return Scale{Sizes: []int{8, 16, 32}, Trials: 3, MaxSteps: 2_000_000} }

// Full is the paper-scale configuration.
func Full() Scale {
	return Scale{Sizes: []int{8, 16, 32, 64, 128}, Trials: 5, MaxSteps: 20_000_000}
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Claim  string // the paper claim being reproduced
	Tables []*metrics.Table
	Series []*metrics.Series
	Notes  []string
	// Pass reports whether the claim's qualitative shape held.
	Pass bool
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// All runs the full suite in order.
func All(s Scale) []Result {
	return []Result{
		E1PrimitivesSafety(s),
		E2Universality(s),
		E3Necessity(),
		E4Safety(s),
		E5Convergence(s),
		E6Potential(s),
		E7Embedding(s),
		E8FSP(s),
		E9Baseline(s),
		E10Oracles(s),
		E11Parallel(s),
		E12Routing(s),
		E13Faults(s),
		E14ModelCheck(),
		E15SkipHops(s),
		E16Differential(s),
	}
}

// --- E1: Lemma 1 — the four primitives preserve weak connectivity ------

// E1PrimitivesSafety applies long random sequences of enabled primitives to
// random weakly connected graphs, checking connectivity after every
// operation.
func E1PrimitivesSafety(s Scale) Result {
	res := Result{
		ID:    "E1",
		Title: "Primitives preserve weak connectivity (Lemma 1)",
		Claim: "Introduction, Delegation, Fusion and Reversal never disconnect PG",
		Pass:  true,
	}
	tb := metrics.NewTable("E1: random primitive sequences on random connected graphs",
		"n", "trials", "ops applied", "disconnections")
	for _, n := range s.Sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		totalOps, disconnections := 0, 0
		for trial := 0; trial < s.Trials; trial++ {
			nodes := ref.NewSpace().NewN(n)
			g := graph.RandomConnected(nodes, rng.Intn(2*n), rng)
			for step := 0; step < 50*n; step++ {
				ops := primitives.EnabledOps(g, nil)
				if len(ops) == 0 {
					break
				}
				if err := primitives.Apply(g, ops[rng.Intn(len(ops))]); err != nil {
					continue
				}
				totalOps++
				if !g.WeaklyConnected() {
					disconnections++
					res.Pass = false
				}
			}
		}
		tb.AddRow(n, s.Trials, totalOps, disconnections)
	}
	res.Tables = append(res.Tables, tb)
	res.note("expected: 0 disconnections everywhere")
	return res
}

// --- E2: Theorem 1 — universality -------------------------------------

// E2Universality transforms random weakly connected graphs into each other
// and measures the primitive counts, plus the O(log n) clique-formation
// round bound from the proof.
func E2Universality(s Scale) Result {
	res := Result{
		ID:    "E2",
		Title: "Universality of the primitives (Theorem 1)",
		Claim: "any weakly connected graph transforms into any other; cliquify needs O(log n) rounds",
		Pass:  true,
	}
	tb := metrics.NewTable("E2: transform random G -> random G' (per-trial averages)",
		"n", "ok", "clique rounds", "log2(n)", "intros", "delegations", "fusions", "reversals")
	series := &metrics.Series{Name: "clique rounds vs n"}
	for _, n := range s.Sizes {
		rng := rand.New(rand.NewSource(int64(n) * 7))
		var rounds, intro, deleg, fus, rev metrics.Sample
		ok := true
		for trial := 0; trial < s.Trials; trial++ {
			nodes := ref.NewSpace().NewN(n)
			from := graph.RandomConnected(nodes, rng.Intn(n), rng)
			to := graph.RandomConnected(nodes, rng.Intn(n), rng)
			stats, err := primitives.Transform(from, to, primitives.TransformOptions{})
			if err != nil || !from.SameSimpleDigraph(to) {
				ok = false
				res.Pass = false
				continue
			}
			rounds.AddInt(stats.CliqueRounds)
			intro.AddInt(stats.Introductions)
			deleg.AddInt(stats.Delegations)
			fus.AddInt(stats.Fusions)
			rev.AddInt(stats.Reversals)
		}
		tb.AddRow(n, ok, rounds.Mean(), math.Log2(float64(n)),
			intro.Mean(), deleg.Mean(), fus.Mean(), rev.Mean())
		series.Append(float64(n), rounds.Mean())
		if rounds.Max() > math.Ceil(math.Log2(float64(n)))+2 {
			res.Pass = false
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Series = append(res.Series, series)
	res.note("clique rounds should track ceil(log2 n) (+small constant)")
	return res
}

// --- E3: Theorem 2 — necessity -----------------------------------------

// E3Necessity runs the witness searches: each target reachable with all
// four primitives, unreachable (by an untruncated search) without the designated one.
func E3Necessity() Result {
	res := Result{
		ID:    "E3",
		Title: "Necessity of each primitive (Theorem 2)",
		Claim: "removing any one primitive breaks universality",
		Pass:  true,
	}
	tb := metrics.NewTable("E3: exhaustive reachability on witness instances",
		"missing primitive", "reachable with all 4", "reachable without it", "states explored")
	for _, w := range primitives.Witnesses() {
		nodes := ref.NewSpace().NewN(w.Nodes)
		start, target := w.Start(nodes), w.Target(nodes)
		full := primitives.Reachable(start, target, primitives.AllKinds(), 0)
		reduced := primitives.Reachable(start, target, primitives.Without(w.Missing), 0)
		tb.AddRow(w.Missing.String(), full.Reachable, reduced.Reachable,
			full.StatesExplored+reduced.StatesExplored)
		if !full.Reachable || reduced.Reachable || reduced.Truncated {
			res.Pass = false
		}
	}
	res.Tables = append(res.Tables, tb)
	res.note("expected: every row reachable=true / without=false")
	return res
}

// --- shared FDP run helper ----------------------------------------------

type runOutcome struct {
	converged bool
	safety    bool // true = safety held
	steps     int
	messages  uint64
	maxChan   int
}

func runFDP(cfg churn.Config, maxSteps int) runOutcome {
	s := churn.Build(cfg)
	variant := sim.FDP
	if cfg.Variant == core.VariantFSP {
		variant = sim.FSP
	}
	r := sim.Run(s.World, sim.NewRandomScheduler(cfg.Seed+1000, 512), sim.RunOptions{
		Variant: variant, MaxSteps: maxSteps, CheckSafety: true,
	})
	return runOutcome{
		converged: r.Converged,
		safety:    r.SafetyViolation == nil,
		steps:     r.Steps,
		messages:  r.Stats.Sent,
		maxChan:   r.Stats.MaxChannel,
	}
}

// --- E4: Lemma 2 — safety ----------------------------------------------

// E4Safety sweeps topologies, leave fractions and corruption, checking the
// Lemma 2 invariant on every run.
func E4Safety(s Scale) Result {
	res := Result{
		ID:    "E4",
		Title: "Protocol safety (Lemma 2)",
		Claim: "relevant processes are never disconnected, from any initial state",
		Pass:  true,
	}
	tb := metrics.NewTable("E4: safety sweep (corrupted initial states)",
		"topology", "leave", "runs", "safety violations", "convergence failures")
	topos := []churn.Topology{churn.TopoLine, churn.TopoRing, churn.TopoStar, churn.TopoTree, churn.TopoRandom}
	n := s.Sizes[min(1, len(s.Sizes)-1)]
	for _, topo := range topos {
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			violations, failures := 0, 0
			for trial := 0; trial < s.Trials; trial++ {
				out := runFDP(churn.Config{
					N: n, Topology: topo, LeaveFraction: frac,
					Pattern: churn.LeaveRandom,
					Corrupt: churn.Corruption{FlipBeliefs: 0.4, RandomAnchors: 0.5, JunkMessages: n},
					Oracle:  oracle.Single{}, Seed: int64(trial),
				}, s.MaxSteps)
				if !out.safety {
					violations++
					res.Pass = false
				}
				if !out.converged {
					failures++
					res.Pass = false
				}
			}
			tb.AddRow(topo.String(), frac, s.Trials, violations, failures)
		}
	}
	res.Tables = append(res.Tables, tb)
	res.note("expected: 0 violations, 0 failures (n=%d)", n)
	return res
}

// --- E5: Lemma 3 + Theorem 3 — convergence ------------------------------

// E5Convergence measures steps and messages to legitimacy vs n and leave
// fraction (the scaling "figure" of the protocol).
func E5Convergence(s Scale) Result {
	res := Result{
		ID:    "E5",
		Title: "Convergence to a legitimate state (Lemma 3, Theorem 3)",
		Claim: "all leaving processes eventually exit; work grows moderately with n",
		Pass:  true,
	}
	tb := metrics.NewTable("E5: steps/rounds/messages to legitimacy (random topology, 50% leaving, means)",
		"n", "converged", "steps", "rounds", "messages", "messages/node", "max channel")
	stepSeries := &metrics.Series{Name: "steps to legitimacy vs n"}
	roundSeries := &metrics.Series{Name: "rounds to legitimacy vs n"}
	msgSeries := &metrics.Series{Name: "messages per node vs n"}
	for _, n := range s.Sizes {
		var steps, rounds, msgs, maxch metrics.Sample
		allOK := true
		for trial := 0; trial < s.Trials; trial++ {
			cfg := churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.5,
				Pattern: churn.LeaveRandom,
				Corrupt: churn.Corruption{FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: n / 2},
				Oracle:  oracle.Single{}, Seed: int64(trial) + 40,
			}
			out := runFDP(cfg, s.MaxSteps)
			if !out.converged || !out.safety {
				allOK = false
				res.Pass = false
				continue
			}
			steps.AddInt(out.steps)
			msgs.AddInt(int(out.messages))
			maxch.AddInt(out.maxChan)
			// Rounds metric: the same scenario under the round scheduler
			// (the standard asynchronous time measure).
			sc := churn.Build(cfg)
			rr := sim.Run(sc.World, sim.NewRoundScheduler(), sim.RunOptions{
				Variant: sim.FDP, MaxSteps: s.MaxSteps,
			})
			if rr.Converged {
				rounds.AddInt(rr.Rounds)
			} else {
				allOK = false
				res.Pass = false
			}
		}
		tb.AddRow(n, allOK, steps.Mean(), rounds.Mean(), msgs.Mean(), msgs.Mean()/float64(n), maxch.Mean())
		stepSeries.Append(float64(n), steps.Mean())
		roundSeries.Append(float64(n), rounds.Mean())
		msgSeries.Append(float64(n), msgs.Mean()/float64(n))
	}
	res.Tables = append(res.Tables, tb)
	res.Series = append(res.Series, stepSeries, roundSeries, msgSeries)
	// Second table: effect of the leave fraction at fixed n.
	n := s.Sizes[min(1, len(s.Sizes)-1)]
	tb2 := metrics.NewTable(fmt.Sprintf("E5b: effect of leave fraction (n=%d, means)", n),
		"leave fraction", "steps", "messages")
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		var steps, msgs metrics.Sample
		for trial := 0; trial < s.Trials; trial++ {
			out := runFDP(churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: frac,
				Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: int64(trial) + 90,
			}, s.MaxSteps)
			if out.converged {
				steps.AddInt(out.steps)
				msgs.AddInt(int(out.messages))
			} else {
				res.Pass = false
			}
		}
		tb2.AddRow(frac, steps.Mean(), msgs.Mean())
	}
	res.Tables = append(res.Tables, tb2)
	return res
}

// --- E6: the potential function Φ ---------------------------------------

// E6Potential traces Φ along runs with increasing initial corruption and
// checks monotone non-increase (the Lemma 3 argument).
func E6Potential(s Scale) Result {
	res := Result{
		ID:    "E6",
		Title: "Potential function Φ decays monotonically (Lemma 3)",
		Claim: "Φ never increases and reaches 0",
		Pass:  true,
	}
	n := s.Sizes[min(1, len(s.Sizes)-1)]
	tb := metrics.NewTable(fmt.Sprintf("E6: Φ decay (n=%d)", n),
		"belief corruption", "initial Φ", "final Φ", "monotone", "steps to Φ=0")
	for _, p := range []float64{0.2, 0.5, 0.8, 1.0} {
		sc := churn.Build(churn.Config{
			N: n, Topology: churn.TopoRandom, LeaveFraction: 0.4,
			Pattern: churn.LeaveRandom,
			Corrupt: churn.Corruption{FlipBeliefs: p, RandomAnchors: p, JunkMessages: n},
			Oracle:  oracle.Single{}, Seed: int64(p * 100),
		})
		initial := core.Phi(sc.World)
		monotone := true
		last := initial
		zeroAt := -1
		r := sim.Run(sc.World, sim.NewRandomScheduler(int64(p*100), 512), sim.RunOptions{
			Variant: sim.FDP, MaxSteps: s.MaxSteps,
			OnStep: func(w *sim.World) {
				phi := core.Phi(w)
				if phi > last {
					monotone = false
				}
				if phi == 0 && zeroAt < 0 {
					zeroAt = w.Steps()
				}
				last = phi
			},
		})
		final := last
		tb.AddRow(p, initial, final, monotone, zeroAt)
		if !monotone || !r.Converged || final != 0 {
			res.Pass = false
		}
		if p == 1.0 {
			// Record one full decay trace as the "figure".
			trace := &metrics.Series{Name: "phi decay (full corruption)"}
			sc2 := churn.Build(churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.4,
				Pattern: churn.LeaveRandom,
				Corrupt: churn.Corruption{FlipBeliefs: 1, RandomAnchors: 1, JunkMessages: n},
				Oracle:  oracle.Single{}, Seed: 4242,
			})
			rr := sim.Run(sc2.World, sim.NewRandomScheduler(4242, 512), sim.RunOptions{
				Variant: sim.FDP, MaxSteps: s.MaxSteps, CheckEvery: 5,
				Potential: core.Phi,
			})
			for i := range rr.PotentialSteps {
				trace.Append(float64(rr.PotentialSteps[i]), float64(rr.PotentialValues[i]))
			}
			res.Series = append(res.Series, trace)
			if !trace.NonIncreasing() {
				res.Pass = false
			}
		}
	}
	res.Tables = append(res.Tables, tb)
	return res
}
