package fdp

// The benchmark harness: one benchmark per experiment of the reproduction
// suite (E1–E11, see DESIGN.md §5 and EXPERIMENTS.md), plus micro-benchmarks
// of the moving parts (protocol steps, primitive applications, snapshot
// predicates). Absolute numbers depend on the host; the *shapes* (who wins,
// how costs scale with n) are what EXPERIMENTS.md records.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/experiments"
	"fdp/internal/graph"
	"fdp/internal/oracle"
	"fdp/internal/primitives"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

func benchScale() experiments.Scale {
	return experiments.Scale{Sizes: []int{8, 16}, Trials: 2, MaxSteps: 2_000_000}
}

func requirePass(b *testing.B, r experiments.Result) {
	b.Helper()
	if !r.Pass {
		b.Fatalf("%s failed during benchmarking", r.ID)
	}
}

// --- One benchmark per experiment (tables E1..E11) ----------------------

func BenchmarkE1PrimitivesSafety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E1PrimitivesSafety(benchScale()))
	}
}

func BenchmarkE2Universality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E2Universality(benchScale()))
	}
}

func BenchmarkE3Necessity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E3Necessity())
	}
}

func BenchmarkE4Safety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E4Safety(benchScale()))
	}
}

func BenchmarkE5Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E5Convergence(benchScale()))
	}
}

func BenchmarkE6Potential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E6Potential(benchScale()))
	}
}

func BenchmarkE7Embedding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E7Embedding(benchScale()))
	}
}

func BenchmarkE8FSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E8FSP(benchScale()))
	}
}

func BenchmarkE9Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E9Baseline(benchScale()))
	}
}

func BenchmarkE10Oracles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E10Oracles(benchScale()))
	}
}

func BenchmarkE11Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E11Parallel(
			experiments.Scale{Sizes: []int{16}, Trials: 1, MaxSteps: 1_000_000}))
	}
}

func BenchmarkE12Routing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E12Routing(benchScale()))
	}
}

func BenchmarkE13Faults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E13Faults(benchScale()))
	}
}

func BenchmarkE14ModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E14ModelCheck())
	}
}

func BenchmarkE15SkipHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E15SkipHops(benchScale()))
	}
}

func BenchmarkE16Differential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E16Differential(
			experiments.Scale{Sizes: []int{10}, Trials: 2, MaxSteps: 1_000_000}))
	}
}

// --- Scaling benches: full convergence runs per system size -------------

func BenchmarkConvergenceByN(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := churn.Build(churn.Config{
					N: n, Topology: churn.TopoRandom, LeaveFraction: 0.5,
					Pattern: churn.LeaveRandom, Oracle: oracle.Single{},
					Seed: int64(i),
				})
				r := sim.Run(s.World, sim.NewRandomScheduler(int64(i), 512), sim.RunOptions{
					Variant: sim.FDP, MaxSteps: 10_000_000,
				})
				if !r.Converged {
					b.Fatal("no convergence")
				}
				b.ReportMetric(float64(r.Steps), "steps/run")
				b.ReportMetric(float64(r.Stats.Sent), "msgs/run")
			}
		})
	}
}

func BenchmarkConvergenceByLeaveFraction(b *testing.B) {
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		b.Run(fmt.Sprintf("leave=%.2f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := churn.Build(churn.Config{
					N: 24, Topology: churn.TopoRandom, LeaveFraction: frac,
					Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: int64(i),
				})
				r := sim.Run(s.World, sim.NewRandomScheduler(int64(i), 512), sim.RunOptions{
					Variant: sim.FDP, MaxSteps: 10_000_000,
				})
				if !r.Converged {
					b.Fatal("no convergence")
				}
			}
		})
	}
}

// --- Micro-benchmarks ----------------------------------------------------

// BenchmarkSimStep measures raw simulator throughput: atomic actions per
// second on a steady-state system with no leavers.
func BenchmarkSimStep(b *testing.B) {
	s := churn.Build(churn.Config{
		N: 32, Topology: churn.TopoRing, LeaveFraction: 0,
		Oracle: oracle.Single{}, Seed: 1,
	})
	sched := sim.NewRandomScheduler(1, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, ok := sched.Next(s.World)
		if !ok {
			b.Fatal("quiescent")
		}
		s.World.Execute(a)
	}
}

// BenchmarkPG measures PG(), which builds the process graph from scratch —
// what each whole-graph query pays per call: RelevantPG and EXITSAFE, the
// hibernating set while a process sleeps, a staying process's degree.
func BenchmarkPG(b *testing.B) {
	s := churn.Build(churn.Config{
		N: 64, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 2,
		Corrupt: churn.Corruption{JunkMessages: 64},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.World.PG().NumNodes() == 0 {
			b.Fatal("empty PG")
		}
	}
}

// BenchmarkPhi measures the potential-function evaluation.
func BenchmarkPhi(b *testing.B) {
	s := churn.Build(churn.Config{
		N: 64, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 3,
		Corrupt: churn.Corruption{FlipBeliefs: 0.5, JunkMessages: 64},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Phi(s.World)
	}
}

// benchOracle measures one evaluation of o for a leaver on the incrementally
// maintained degree ledger, per system size.
func benchOracle(b *testing.B, o sim.Oracle) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := churn.Build(churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.5,
				Pattern: churn.LeaveRandom, Oracle: o, Seed: 4,
			})
			u := s.LeavingNodes()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Evaluate(s.World, u)
			}
		})
	}
}

// BenchmarkOracleSingle measures one SINGLE evaluation: a row length.
func BenchmarkOracleSingle(b *testing.B) { benchOracle(b, oracle.Single{}) }

// BenchmarkOracleNIDEC measures one NIDEC evaluation: a pass over the
// leaver's row and its stored references.
func BenchmarkOracleNIDEC(b *testing.B) { benchOracle(b, oracle.NIDEC{}) }

// BenchmarkOracleSingleRebuild is the from-scratch baseline for
// BenchmarkOracleSingle: it reconstructs the process graph on every
// evaluation, the way the oracle worked before incremental maintenance.
func BenchmarkOracleSingleRebuild(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := churn.Build(churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.5,
				Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 4,
			})
			u := s.LeavingNodes()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pg := s.World.PG()
				if !pg.HasNode(u) {
					b.Fatal("leaver missing from PG")
				}
				_ = pg.Degree(u)
			}
		})
	}
}

// BenchmarkWorldStep measures full scheduler-pick + Execute throughput per
// system size, with the degree ledger live (as during an oracle-driven run):
// every step pays its O(Δ) maintenance cost.
func BenchmarkWorldStep(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := churn.Build(churn.Config{
				N: n, Topology: churn.TopoRandom, LeaveFraction: 0.5,
				Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 7,
			})
			sched := sim.NewRandomScheduler(7, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, ok := sched.Next(s.World)
				if !ok {
					b.Fatal("quiescent")
				}
				s.World.Execute(a)
			}
		})
	}
}

// BenchmarkPrimitiveApply measures raw primitive application on a clique.
func BenchmarkPrimitiveApply(b *testing.B) {
	nodes := ref.NewSpace().NewN(16)
	g := graph.Clique(nodes)
	rng := rand.New(rand.NewSource(5))
	ops := primitives.EnabledOps(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := g.Clone()
		_ = primitives.Apply(h, ops[rng.Intn(len(ops))])
	}
}

// BenchmarkTransform measures a full Theorem 1 transformation.
func BenchmarkTransform(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			nodes := ref.NewSpace().NewN(n)
			from := graph.RandomConnected(nodes, n, rng)
			to := graph.RandomConnected(nodes, n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := from.Clone()
				if _, err := primitives.Transform(g, to, primitives.TransformOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelThroughput measures concurrent-runtime event throughput.
func BenchmarkParallelThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := SimulateParallel(Config{N: 32, LeaveFraction: 0.5, Seed: int64(i)}, 60*time.Second)
		if err != nil || !rep.Converged {
			b.Fatalf("parallel run failed: %v %+v", err, rep)
		}
		b.ReportMetric(float64(rep.Steps), "events/run")
	}
}
