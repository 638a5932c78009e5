package fdp

import (
	"net/http"

	"fdp/internal/experiments"
	"fdp/internal/obs"
)

// Observer is the metric registry of the observability layer: a
// concurrency-safe set of counters, gauges and histograms shared by both
// engines. Set Config.Observe to one to have Simulate / SimulateParallel
// record the FDP series (per-kind event counts, message age at delivery,
// mailbox depth, time-to-exit per leaver, oracle calls) into it; render it
// with WritePrometheus/String or serve it live via ObserveMux.
type Observer = obs.Registry

// NewObserver returns an empty metric registry.
func NewObserver() *Observer { return obs.NewRegistry() }

// ObserveMux returns an http.Handler exposing reg as a Prometheus text
// endpoint at /metrics plus the net/http/pprof profiling endpoints at
// /debug/pprof/ — the handler behind the -serve flag of cmd/fdpsim and
// cmd/fdpbench.
func ObserveMux(reg *Observer) http.Handler { return obs.NewServeMux(reg) }

// BenchReport is the machine-readable benchmark payload (the
// BENCH_<engine>.json artifact schema).
type BenchReport = experiments.BenchReport

// BenchSizes runs the FDP churn benchmark on both engines and returns one
// report per engine with exact per-size time-to-exit p50/p99 series; sizes is
// strictly increasing, nil keeps the scale's default. A non-nil reg receives
// every run's live series (a -serve endpoint shows the benchmark as it runs).
// Sizes above the sequential engine's feasibility cap appear only in the
// concurrent engine's report; trial counts scale down at large n.
func BenchSizes(quick bool, sizes []int, reg *Observer) []BenchReport {
	scale := experiments.Full()
	if quick {
		scale = experiments.Quick()
	}
	if len(sizes) > 0 {
		scale.Sizes = sizes
	}
	return experiments.Bench(scale, reg)
}
