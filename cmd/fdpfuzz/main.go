// Command fdpfuzz is the adversarial churn fuzzer (see internal/fuzz): it
// generates randomized scenarios — arbitrary topologies, targeted leave
// patterns, corruption extremes, mid-run fault-wave trains — runs each on
// both execution engines under the differential harness, and reports every
// failure: verdict disagreements, safety violations, joint non-convergence,
// panics, builder rejections.
//
//	fdpfuzz -seed 1 -runs 200                 # fixed-seed corpus sweep
//	fdpfuzz -duration 30s                     # time-bounded sweep
//	fdpfuzz -seed 1 -runs 50 -mutate          # mutation test: MUST find failures
//	fdpfuzz -seed 1 -runs 200 -out testdata   # shrink + commit fixtures
//
// Failures are delta-debugged to minimal cases (-shrink, on by default) and,
// with -out, committed as replayable journal fixtures (<name>.jsonl +
// <name>.meta.json) that fdpreplay verifies byte-identically. A fixture is a
// sequential journal, so a failure only the concurrent engine shows (its
// Lemma 2 violation, or a disagreement whose sequential run converged) gets
// none, and stdout says why.
//
// Exit status: 0 when no failures were found, 1 when at least one was, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"fdp/internal/diffval"
	"fdp/internal/fuzz"
)

func main() {
	// Graceful ^C: the sweep ends after the current case and failures found
	// so far are still shrunk and written as fixtures. A second signal kills.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "fdpfuzz: interrupted, reporting failures found so far")
		close(stop)
		<-sigc
		os.Exit(130)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("fdpfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "generator seed (a fixed seed generates a fixed case sequence)")
		runs     = fs.Int("runs", 0, "number of cases (0: until -duration, or 64 if that is unset too)")
		duration = fs.Duration("duration", 0, "wall-clock budget (0 = unbounded)")
		maxSteps = fs.Int("maxsteps", 0, fmt.Sprintf("sequential step budget per case (0 = %d)", diffval.DefaultMaxSteps))
		timeout  = fs.Duration("timeout", 0, "concurrent run budget per case, in the runtime's seeded virtual time (0 = 10s)")
		shrink   = fs.Bool("shrink", true, "delta-debug each failure to a minimal case")
		outDir   = fs.String("out", "", "write shrunk failures as journal fixtures into this directory")
		mutate   = fs.Bool("mutate", false, "inject the broken MUTANT-SINGLE oracle (mutation test: failures are expected)")
		maxFail  = fs.Int("maxfailures", 0, "stop after this many failures (0 = 8)")
		verbose  = fs.Bool("v", false, "log every case and shrink step")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fdpfuzz [-seed N] [-runs N | -duration D] [-mutate] [-shrink] [-out dir]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	opts := fuzz.Options{
		Seed:        *seed,
		Runs:        *runs,
		Duration:    *duration,
		MaxSteps:    *maxSteps,
		Timeout:     *timeout,
		Mutate:      *mutate,
		MaxFailures: *maxFail,
		Stop:        stop,
	}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, "fdpfuzz: "+format+"\n", args...)
		}
	}

	res := fuzz.Run(opts)
	fmt.Fprintf(stdout, "fdpfuzz: seed=%d ran %d case(s), %d failure(s)\n", *seed, res.Ran, len(res.Failures))

	for i, f := range res.Failures {
		fmt.Fprintf(stdout, "failure %d: %s\n", i, f)
		c := f.Case
		if *shrink {
			shrunk, spent := fuzz.Shrink(f, opts, 0)
			c = shrunk
			fmt.Fprintf(stdout, "  shrunk (%d candidate runs): n=%d topo=%s leavers=%v strikes=%d corrupt=(%.2f,%.2f,%d)\n",
				spent, c.Scenario.N, c.Scenario.Topology, c.Scenario.LeaverIndices,
				len(c.Scenario.Strikes), c.Scenario.FlipBeliefs, c.Scenario.RandomAnchors, c.Scenario.JunkMessages)
		}
		if why := fuzz.Unshown(f.Kind, c, opts); why != "" {
			if *outDir != "" {
				fmt.Fprintf(stdout, "  no fixture: %s\n", why)
			}
			continue
		}
		raw, recs, dropped, err := fuzz.FixtureJournal(f.Kind, c, opts)
		if err != nil {
			fmt.Fprintf(stderr, "fdpfuzz: journal of failure %d: %v\n", i, err)
			continue
		}
		if dropped > 0 {
			fmt.Fprintf(stdout, "  schedule truncated: %d -> %d records\n", len(recs)+dropped, len(recs))
		}
		if *outDir != "" {
			meta := fuzz.Meta{
				Name: fmt.Sprintf("%s-%03d", f.Kind, i),
				Kind: f.Kind,
				Note: f.Note,
				Case: c,
			}
			if err := fuzz.WriteFixture(*outDir, meta, raw); err != nil {
				fmt.Fprintf(stderr, "fdpfuzz: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "  fixture: %s/%s.jsonl (%d records)\n", *outDir, meta.Name, len(recs))
			}
		}
	}

	if len(res.Failures) > 0 {
		return 1
	}
	return 0
}
