package experiments

import (
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/diffval"
	"fdp/internal/metrics"
	"fdp/internal/obs"
	"fdp/internal/oracle"
	"fdp/internal/sim"
)

// BenchQuantiles summarizes one latency sample with exact (nearest-rank)
// percentiles, as opposed to the interpolated bucket quantiles the live
// /metrics endpoint reports.
type BenchQuantiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

func quantiles(s *metrics.Sample) BenchQuantiles {
	return BenchQuantiles{
		Count: s.N(),
		P50:   s.Percentile(50),
		P99:   s.Percentile(99),
		Mean:  s.Mean(),
		Max:   s.Max(),
	}
}

// BenchPoint is one system size in a bench series.
type BenchPoint struct {
	Size        int               `json:"size"`
	TimeToExit  BenchQuantiles    `json:"time_to_exit"`
	OracleCalls uint64            `json:"oracle_calls"`
	Events      map[string]uint64 `json:"events"`
	Converged   int               `json:"converged"`
	Trials      int               `json:"trials"`
}

// BenchReport is one engine's machine-readable benchmark: the payload of
// the BENCH_<engine>.json artifacts the bench harness emits for CI.
type BenchReport struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	// Unit is the unit of the time-to-exit series: "steps" for the
	// sequential engine (logical time), "seconds" for the concurrent one
	// (wall clock).
	Unit   string       `json:"unit"`
	Series []BenchPoint `json:"series"`
}

func benchScenario(n int, seed int64) churn.Config {
	return churn.Config{
		N: n, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Variant: core.VariantFDP,
		Oracle: oracle.Single{}, Seed: seed,
	}
}

// SimBenchSizeCap bounds the sequential engine's bench series; sizes above
// the cap are reported only by the concurrent engine. It is a choice of
// series length, not a feasibility bound: a half-leaving churn takes ~23
// steps per process at about a microsecond each (the repo benchmark's
// sim_churn converges n=20000 in about 0.4 s), and the random
// scheduler's O(n) uniform pick is rare once n is past its aging bound (see
// sim.RandomScheduler). The series is in steps and deterministic per seed,
// so a committed point changes only when the engine's behaviour does.
const SimBenchSizeCap = 10000

// trialsFor scales the per-size trial count down as n grows so large-n
// points stay affordable: full trials through n=256, two through n=4096,
// three at most through n=10000 (seconds each on the runtime, and one trial's
// percentiles follow its seed), one above that. p50/p99 come from per-exit
// latencies, so even one trial of a n=100k run yields a 50k-sample
// distribution.
func trialsFor(s Scale, n int) int {
	switch {
	case n <= 256:
		return s.Trials
	case n <= 4096:
		return min(s.Trials, 2)
	case n <= 10000:
		return min(s.Trials, 3)
	default:
		return 1
	}
}

// benchTimeout is the per-trial convergence budget of the concurrent
// engine: large-n churn legitimately needs minutes of wall clock.
func benchTimeout(n int) time.Duration {
	if n > 4096 {
		return 10 * time.Minute
	}
	return time.Minute
}

// Bench runs the FDP churn benchmark on both engines and returns one report
// per engine, each with a per-size time-to-exit p50/p99 series plus event
// and oracle-call counts. Sizes above SimBenchSizeCap appear only in the
// concurrent engine's report. When reg is non-nil every run is additionally
// instrumented into it, so a live /metrics endpoint shows the benchmark's
// aggregate series while it executes.
func Bench(s Scale, reg *obs.Registry) []BenchReport {
	return []BenchReport{benchSequential(s, reg), benchConcurrent(s, reg)}
}

func benchSequential(s Scale, reg *obs.Registry) BenchReport {
	rep := BenchReport{Name: "fdp-churn-time-to-exit", Engine: "sim", Unit: "steps"}
	for _, n := range s.Sizes {
		if n > SimBenchSizeCap {
			continue
		}
		var tte metrics.Sample
		var kinds [sim.NumEventKinds]uint64
		calls := obs.NewRegistry()
		trials := trialsFor(s, n)
		point := BenchPoint{Size: n, Trials: trials}
		for trial := 0; trial < trials; trial++ {
			seed := int64(n*1000 + trial)
			scn := benchScenario(n, seed)
			scn.Oracle = obs.CountOracle(scn.Oracle, calls)
			built := churn.Build(scn)
			built.World.AddEventHook(func(e sim.Event) {
				kinds[e.Kind]++
				if e.Kind == sim.EvExit {
					tte.AddInt(e.Step)
				}
			})
			if reg != nil {
				obs.InstrumentWorld(built.World, reg)
			}
			res := sim.Run(built.World, sim.NewRandomScheduler(seed, 0), sim.RunOptions{
				Variant: sim.FDP, MaxSteps: s.MaxSteps,
			})
			if res.Converged {
				point.Converged++
			}
		}
		point.TimeToExit = quantiles(&tte)
		point.OracleCalls = calls.Counter(obs.MetricOracleCalls, "").Value()
		point.Events = kindMap(kinds[:])
		rep.Series = append(rep.Series, point)
	}
	return rep
}

func benchConcurrent(s Scale, reg *obs.Registry) BenchReport {
	rep := BenchReport{Name: "fdp-churn-time-to-exit", Engine: "runtime", Unit: "seconds"}
	for _, n := range s.Sizes {
		var tte metrics.Sample
		var kinds [sim.NumEventKinds]uint64
		calls := obs.NewRegistry()
		trials := trialsFor(s, n)
		point := BenchPoint{Size: n, Trials: trials}
		for trial := 0; trial < trials; trial++ {
			seed := int64(n*1000 + trial)
			scn := benchScenario(n, seed)
			scn.Oracle = obs.CountOracle(scn.Oracle, calls)
			rt := diffval.MirrorWorld(churn.Build(scn).World, scn.Oracle)
			if reg != nil {
				obs.InstrumentRuntime(rt, reg)
			}
			if rt.RunUntil(func(w *sim.World) bool { return w.Legitimate(sim.FDP) },
				2*time.Millisecond, benchTimeout(n)) {
				point.Converged++
			}
			for k := 0; k < sim.NumEventKinds; k++ {
				kinds[k] += rt.KindCount(sim.EventKind(k))
			}
			for _, d := range rt.ExitLatencies() {
				tte.Add(d.Seconds())
			}
		}
		point.TimeToExit = quantiles(&tte)
		point.OracleCalls = calls.Counter(obs.MetricOracleCalls, "").Value()
		point.Events = kindMap(kinds[:])
		rep.Series = append(rep.Series, point)
	}
	return rep
}

func kindMap(kinds []uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for k, c := range kinds {
		if c > 0 {
			out[sim.EventKind(k).String()] = c
		}
	}
	return out
}
