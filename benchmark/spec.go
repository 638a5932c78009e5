package main

import "time"

// metricDef names one metric. BENCHMARK.json repeats name, unit, direction
// and (end-to-end only) bound; TestBenchmarkJSONMatchesSpec keeps the two
// from drifting. moves is the prediction of README's layer table: which
// end-to-end metric the layer metric should move, and on which workload.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets one
// run measure. 4 + 22 x 5 runs of it, each with up to 2 s of go run, process
// and last-trial overshoot on top, and two cold builds of ~40 s fit the
// driver's 3420 s with about eight minutes to spare.
const runSeconds = 23

// endToEnd is what a user of the system sees. Every workload emits every
// one of them (the driver contract); README's glossary says what each
// means on each engine. Timings are scaled to the reference core's speed
// (calib.go). One bound has to hold on every workload, and the contract
// wants a ten-run spread under a third of it. The count keeps the issue's
// 10%: it spreads 2-4% over runs on different seeds. The timings spread
// 1-5% on rt_churn and rt_sparse but 6-9% on rt_observed, sim_churn and
// overlay_lookup, so they get the contract's widest (README, "Repeatability").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "exit_p50_s", unit: "s", better: "lower", bound: 0.25},
	{name: "exit_p99_s", unit: "s", better: "lower", bound: 0.25},
	{name: "converge_s", unit: "s", better: "lower", bound: 0.25},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "exits_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "msgs_per_exit", unit: "count", better: "lower", bound: 0.10},
}

const (
	onSim     = "events_per_s, converge_s on sim_churn, overlay_lookup"
	onChurn   = "exit_p50_s, exit_p99_s, converge_s on rt_churn; little on rt_sparse"
	onRuntime = "exit_p50_s, events_per_s on rt_churn, rt_sparse"
	onObs     = "exit_p50_s, events_per_s on rt_observed only"
	onLookup  = "converge_s on overlay_lookup; app.lookups_per_s, app.lookup_ok_share"
)

// perLayer is measured by the traced pass only, from outside the layers. A
// workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{name: "churn.build_s", unit: "s", better: "lower", moves: "setup_s on rt_*, sim_churn"},
	{name: "diffval.mirror_s", unit: "s", better: "lower", moves: "setup_s on rt_*"},
	{name: "framework.build_s", unit: "s", better: "lower", moves: "setup_s on overlay_lookup"},

	{name: "sim.steps", unit: "count", better: "lower", moves: onSim},
	{name: "sim.steps_per_exit", unit: "count", better: "lower", moves: onSim},
	{name: "sim.sched_next_ns", unit: "ns", better: "lower", moves: onSim},
	{name: "sim.execute_timeout_ns", unit: "ns", better: "lower", moves: onSim},
	{name: "sim.execute_deliver_ns", unit: "ns", better: "lower", moves: onSim},
	{name: "sim.allocs_per_step", unit: "count", better: "lower", moves: onSim},
	{name: "sim.legitimate_ns", unit: "ns", better: "lower", moves: onSim},
	{name: "sim.max_channel", unit: "count", better: "lower", moves: onSim},
	{name: "sim.msg_age_p50_steps", unit: "count", better: "lower", moves: onSim},
	{name: "sim.msg_age_p99_steps", unit: "count", better: "lower", moves: onSim},

	{name: "oracle.calls", unit: "count", better: "lower", moves: onChurn},
	{name: "oracle.calls_per_exit", unit: "count", better: "lower", moves: onChurn},
	{name: "oracle.grant_share", unit: "share", better: "higher", moves: onChurn},
	{name: "oracle.eval_ns", unit: "ns", better: "lower", moves: onChurn},
	{name: "oracle.busy_s", unit: "s", better: "lower", moves: onChurn},

	{name: "parallel.shards", unit: "count", better: "higher", moves: onRuntime},
	{name: "parallel.epochs", unit: "count", better: "lower", moves: onRuntime},
	{name: "parallel.epochs_per_s", unit: "1/s", better: "higher", moves: onRuntime},
	{name: "parallel.exits_per_epoch", unit: "count", better: "higher", moves: onRuntime},
	{name: "parallel.exit_denied_share", unit: "share", better: "lower", moves: onRuntime},
	{name: "parallel.timeouts_per_exit", unit: "count", better: "lower", moves: "msgs_per_exit, " + onRuntime},
	{name: "parallel.sends_per_exit", unit: "count", better: "lower", moves: "msgs_per_exit on rt_*"},
	{name: "parallel.drops", unit: "count", better: "lower", moves: "msgs_per_exit on rt_*"},
	{name: "parallel.mailbox_wait_p50_us", unit: "us", better: "lower", moves: onRuntime},
	{name: "parallel.mailbox_wait_p99_us", unit: "us", better: "lower", moves: onRuntime},
	{name: "parallel.mailbox_depth_max", unit: "count", better: "lower", moves: onRuntime},
	{name: "parallel.first_exit_s", unit: "s", better: "lower", moves: onRuntime},
	{name: "parallel.freeze_ms", unit: "ms", better: "lower", moves: "none (untimed check); prices one Freeze at this n"},
	{name: "parallel.allocs_per_event", unit: "count", better: "lower", moves: onRuntime},
	{name: "parallel.heap_bytes_per_proc", unit: "bytes", better: "lower", moves: "setup_s on rt_*"},

	{name: "obs.counter_inc_ns", unit: "ns", better: "lower", moves: onObs},
	{name: "obs.progress_note_ns", unit: "ns", better: "lower", moves: onObs},
	{name: "trace.flight_record_ns", unit: "ns", better: "lower", moves: onObs},
	{name: "trace.journal_record_ns", unit: "ns", better: "lower", moves: onObs},
	{name: "trace.journal_bytes_per_event", unit: "bytes", better: "lower", moves: onObs},

	{name: "framework.steps_to_target", unit: "count", better: "lower", moves: onLookup},
	{name: "framework.steps_per_exit", unit: "count", better: "lower", moves: onLookup},
	{name: "app.hops_mean", unit: "count", better: "lower", moves: onLookup},
	{name: "app.failed_share", unit: "share", better: "lower", moves: onLookup},
	{name: "app.lookups_per_s", unit: "1/s", better: "higher", moves: "user-visible on overlay_lookup (demoted, see README)"},
	{name: "app.lookup_ok_share", unit: "share", better: "higher", moves: "user-visible on overlay_lookup (demoted, see README)"},

	{name: "bench.trace_overhead_share", unit: "share", better: "lower", moves: "none; the price of the traced pass"},
	{name: "bench.poll_lag_p99_ms", unit: "ms", better: "lower", moves: "none; how late the 1 ms pollers ran"},
	{name: "bench.host_slowdown", unit: "ratio", better: "lower", moves: "none; the layer timings are as measured, on a core this much slower than the reference"},
	{name: "bench.failed_share", unit: "share", better: "lower", moves: "all workloads (demoted: it is 0, see README)"},
}

// sizes are the dials of one workload. n is part of the workload's
// identity; trials is the only dial for the time cap.
type sizes struct {
	n      int
	leave  float64
	trials int
	// deadline bounds one trial; an operation not finished by then failed.
	deadline time.Duration
}

// workload is one named load. run executes one trial.
type workload struct {
	name, why   string
	full, smoke sizes
	run         func(b *bench, sz sizes, seed int64) trial
}

var workloads = []workload{
	{
		name:  "rt_churn",
		why:   "sharded runtime, n=10000, half the processes leave: the oracle/epoch path does most of the work",
		full:  sizes{n: 10000, leave: 0.5, trials: 21, deadline: 20 * time.Second},
		smoke: sizes{n: 300, leave: 0.5, trials: 2, deadline: 10 * time.Second},
		run:   func(b *bench, sz sizes, seed int64) trial { return runRuntime(b, sz, seed, false) },
	},
	{
		name:  "rt_sparse",
		why:   "same runtime, 2% leave: mailbox and timeout pacing dominate, an oracle-only change must not move it",
		full:  sizes{n: 10000, leave: 0.02, trials: 21, deadline: 20 * time.Second},
		smoke: sizes{n: 300, leave: 0.02, trials: 2, deadline: 10 * time.Second},
		run:   func(b *bench, sz sizes, seed int64) trial { return runRuntime(b, sz, seed, false) },
	},
	{
		name:  "rt_observed",
		why:   "rt_churn with counters, progress tracker, flight ring and JSON journal attached: observers do most of the work",
		full:  sizes{n: 10000, leave: 0.5, trials: 11, deadline: 20 * time.Second},
		smoke: sizes{n: 300, leave: 0.5, trials: 2, deadline: 10 * time.Second},
		run:   func(b *bench, sz sizes, seed int64) trial { return runRuntime(b, sz, seed, true) },
	},
	{
		name:  "sim_churn",
		why:   "sequential engine, n=20000, half leave: scheduler pick, core.Proc actions and PG accounting, no internal/parallel",
		full:  sizes{n: 20000, leave: 0.5, trials: 7, deadline: 25 * time.Second},
		smoke: sizes{n: 400, leave: 0.5, trials: 2, deadline: 10 * time.Second},
		run:   runSim,
	},
	{
		name:  "overlay_lookup",
		why:   "P' over a routed list on the sequential engine, n=32, lookups every 5n steps while 30% leave: framework, overlay, app",
		full:  sizes{n: 32, leave: 0.3, trials: 60, deadline: 25 * time.Second},
		smoke: sizes{n: 16, leave: 0.3, trials: 2, deadline: 10 * time.Second},
		run:   runOverlay,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
