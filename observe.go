package fdp

import (
	"io"

	"fdp/internal/experiments"
	"fdp/internal/obs"
)

// Observer is the metric registry of the observability layer: a
// concurrency-safe set of counters, gauges and histograms shared by both
// engines. Set Config.Observe to one to have Simulate / SimulateParallel
// record the FDP series (per-kind event counts, message age at delivery,
// mailbox depth, time-to-exit per leaver, oracle calls) into it; render it
// with WritePrometheus/String or serve it live via ServeObserver.
type Observer = obs.Registry

// NewObserver returns an empty metric registry.
func NewObserver() *Observer { return obs.NewRegistry() }

// ServeObserver listens on addr and serves reg as a Prometheus text endpoint
// at /metrics plus the net/http/pprof profiling endpoints at /debug/pprof/
// until stop closes the listener and waits for the server — the -serve flag of cmd/fdpsim and
// cmd/fdpbench. It prints the endpoint to out; a serve error goes to errw,
// prefixed with prog.
func ServeObserver(addr string, reg *Observer, out, errw io.Writer, prog string) (stop func(), err error) {
	return obs.Serve(addr, reg, out, errw, prog)
}

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
