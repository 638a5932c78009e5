// Command benchmark is the repository's yardstick: five named workloads over
// the sharded runtime, the sequential engine and P' lookups, measured end to
// end (untraced pass) and layer by layer (traced pass, from
// outside: by counting and timing calls into the layers' public functions).
// See README.md in this directory.
//
//	go run ./benchmark                      every workload, default trials
//	go run ./benchmark -trace 1             plus the traced pass and span files
//	go run ./benchmark -workload rt_churn -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -repeat 10           two sets of ten fresh-process runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// pass is one sweep of trials over one workload, traced or not.
type pass struct {
	b      *bench
	trials []trial
}

// runPass runs trials of wl until the count or the time budget is used up
// (a trial that would overrun the budget is not started; at least one
// runs). Trial t is seeded seed+t.
func runPass(wl *workload, sz sizes, seed int64, budget time.Duration, traced, smoke bool) *pass {
	p := &pass{b: newBench(traced, smoke)}
	start := time.Now()
	for i := 0; ; i++ {
		if budget <= 0 && i >= sz.trials {
			break
		}
		if el := time.Since(start); budget > 0 && i >= 1 && el+el/time.Duration(i) > budget {
			break
		}
		runtime.GC() // each trial starts from a collected heap, outside every timed window
		if traced {
			p.b.spans.nextTrial()
		}
		end := p.b.span("trial")
		p.trials = append(p.trials, wl.run(p.b, sz, seed+int64(i)))
		end()
	}
	if traced && wl.name == "rt_observed" {
		probeObservers(p.b, sz, seed)
	}
	return p
}

// tally counts operations over the pass. Every operation of a trial whose
// correctness check failed counts as failed.
func (p *pass) tally() (attempted, failed int, problems []string) {
	for i, t := range p.trials {
		attempted += t.ops
		if t.problem != "" {
			failed += t.ops
			problems = append(problems, fmt.Sprintf("trial %d: %s", i, t.problem))
		} else {
			failed += t.failed
		}
	}
	return attempted, failed, problems
}

// endToEndValues reduces the trials to the end-to-end metrics. Every timing
// is a median over trials — the exit percentiles too: each trial's own p50
// and p99 over its leavers, then the median of those. (Pooling all leavers
// of a run lets one slow trial in twenty set the p99; see README.) With
// calibrated set, each trial's timings are first scaled to the reference
// core's speed by the readings around its windows (calib.go); without, they
// are as measured. The one count, msgs_per_exit, is pooled: all messages of
// the run over all its exits. A sim_churn run holds ~16 trials whose
// per-seed counts range from 31 to 52, and their median spread 8% between
// runs where the pooled ratio spreads 3.5%.
func (p *pass) endToEndValues(calibrated bool) (vals map[string]float64, exits int) {
	var setup, converge, events, exitRate, p50, p99 []float64
	var msgs uint64
	for _, t := range p.trials {
		onSetup, onRun := 1.0, 1.0
		if calibrated {
			onSetup, onRun = t.setupCal.scale(), t.runCal.scale()
		}
		c := t.converge.Seconds() * onRun
		setup = append(setup, t.setup.Seconds()*onSetup)
		converge = append(converge, c)
		events = append(events, ratio(float64(t.events), c))
		exitRate = append(exitRate, ratio(float64(len(t.exits)), c))
		msgs += t.msgs
		p50 = append(p50, percentile(t.exits, 50)*onRun)
		p99 = append(p99, percentile(t.exits, 99)*onRun)
		exits += len(t.exits)
	}
	return map[string]float64{
		"setup_s":       median(setup),
		"exit_p50_s":    median(p50),
		"exit_p99_s":    median(p99),
		"converge_s":    median(converge),
		"events_per_s":  median(events),
		"exits_per_s":   median(exitRate),
		"msgs_per_exit": ratio(float64(msgs), float64(exits)),
	}, exits
}

// slowdown is the median over the trials' run windows of how much slower
// than the reference core the host ran the calibration kernel.
func (p *pass) slowdown() float64 {
	var s []float64
	for _, t := range p.trials {
		s = append(s, 1/t.runCal.scale())
	}
	return median(s)
}

// report is what one invocation learned about one workload. perLayer holds
// only what the traced pass measured: a bypassed layer is absent (and reads
// 0 on the result line).
type report struct {
	attempted, failed  int
	problems           []string
	endToEnd, perLayer map[string]float64
}

// runWorkload runs the untraced pass and, if asked, the traced one, and
// prints every metric by name and unit.
func runWorkload(out io.Writer, wl *workload, seed int64, seconds float64, traced, smoke bool, traceOut string) (report, error) {
	sz := wl.full
	if smoke {
		sz = wl.smoke
	}
	budget := time.Duration(seconds * float64(time.Second))
	plainBudget := budget
	if traced {
		plainBudget = budget / 3 // the untraced pass only prices the tracing here
	}

	start := time.Now()
	plain := runPass(wl, sz, seed, plainBudget, false, smoke)
	var rep report
	rep.attempted, rep.failed, rep.problems = plain.tally()
	var exits int
	rep.endToEnd, exits = plain.endToEndValues(true)
	raw, _ := plain.endToEndValues(false)

	fmt.Fprintf(out, "\nworkload %s: n=%d, %.0f%% leave, seed %d, %d trials in %.1f s\n  why: %s\n",
		wl.name, sz.n, sz.leave*100, seed, len(plain.trials), time.Since(start).Seconds(), wl.why)
	fmt.Fprintf(out, "  host: calibration kernel %.2fx slower than the reference core beside the median trial; timings are scaled to the reference\n",
		plain.slowdown())
	for _, m := range endToEnd {
		samples := fmt.Sprintf("median of %d trials", len(plain.trials))
		switch m.name {
		case "exit_p50_s", "exit_p99_s":
			samples = fmt.Sprintf("median of %d trials' percentile, %d exits", len(plain.trials), exits)
		case "msgs_per_exit":
			samples = fmt.Sprintf("all messages of %d trials over %d exits", len(plain.trials), exits)
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-6s (as measured %.6g; %s; %s is better, bound %.0f%%)\n",
			m.name, rep.endToEnd[m.name], m.unit, raw[m.name], samples, m.better, m.bound*100)
	}

	if traced {
		tp := runPass(wl, sz, seed, budget-plainBudget, true, smoke)
		a, f, problems := tp.tally()
		rep.attempted, rep.failed = rep.attempted+a, rep.failed+f
		rep.problems = append(rep.problems, problems...)
		tracedE2E, _ := tp.endToEndValues(true)
		tp.b.note("bench.trace_overhead_share",
			ratio(tracedE2E["converge_s"]-rep.endToEnd["converge_s"], rep.endToEnd["converge_s"]))
		tp.b.note("bench.host_slowdown", tp.slowdown())
		tp.b.note("bench.poll_lag_p99_ms", percentile(tp.b.pollLag, 99))
		tp.b.note("bench.failed_share", ratio(float64(rep.failed), float64(rep.attempted)))
		rep.perLayer = make(map[string]float64, len(perLayer))
		fmt.Fprintf(out, "  traced pass: %d trials; a layer this workload bypasses is not printed (and reads 0)\n", len(tp.trials))
		for _, m := range perLayer {
			if samples := tp.b.layer[m.name]; len(samples) > 0 {
				rep.perLayer[m.name] = median(samples)
				fmt.Fprintf(out, "  %-34s %14.6g %-6s (n=%d; moves %s)\n",
					m.name, rep.perLayer[m.name], m.unit, len(samples), m.moves)
			}
		}
		path := filepath.Join(traceOut, "trace-"+wl.name+".json")
		if err := writeSpans(tp.b.spans, path, wl.name); err != nil {
			return rep, err
		}
		fmt.Fprintf(out, "  spans: %s (Chrome trace; load in chrome://tracing or ui.perfetto.dev)\n", path)
	}
	fmt.Fprintf(out, "  %-34s %14.6g %-6s (%d of %d operations)\n", "failed_share",
		ratio(float64(rep.failed), float64(rep.attempted)), "share", rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	return rep, nil
}

func writeSpans(l *spanLog, path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.writeChrome(f, workload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the driver contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r report) line(traced bool) resultLine {
	defs, vals := endToEnd, r.endToEnd
	if traced {
		defs, vals = perLayer, r.perLayer
	}
	out := resultLine{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false // not a measurement; JSON could not carry it either
			v = 0
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed S: trial t of a run is seeded S+t")
		seconds  = flag.Float64("seconds", 0, "measure for about this long per workload instead of a fixed trial count")
		traceOn  = flag.Int("trace", 0, "1 adds the traced pass: per-layer metrics and a span file")
		traceOut = flag.String("trace-out", ".bench_build", "directory the span files are written to")
		smoke    = flag.Bool("smoke", false, "tiny sizes, for the smoke test; the numbers mean nothing")
		repeat   = flag.Int("repeat", 0, "run two sets of K fresh-process runs per workload and judge their agreement")
	)
	flag.Parse()
	if flag.NArg() > 0 || *traceOn < 0 || *traceOn > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name|all] [-seed S] [-seconds T] [-trace 0|1] [-smoke] [-repeat K]")
		os.Exit(2)
	}
	// No engine may see more shards than the host has cores.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	selected := workloads
	if *name != "all" {
		wl := workloadByName(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*wl}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	if *repeat > 0 {
		if *repeat < 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -repeat needs at least 2 runs per set")
			os.Exit(2)
		}
		ok, err := repeatSets(os.Stdout, selected, *repeat, *seed, *seconds, *smoke)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	failed := false
	var last report
	for i := range selected {
		rep, err := runWorkload(os.Stdout, &selected[i], *seed, *seconds, *traceOn == 1, *smoke, *traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		failed = failed || len(rep.problems) > 0
		last = rep
	}
	if len(selected) == 1 {
		line, err := json.Marshal(last.line(*traceOn == 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	if failed {
		os.Exit(1)
	}
}
