// Command fdpsim runs a single departure-protocol scenario and reports the
// outcome.
//
// Example:
//
//	fdpsim -n 32 -topology random -leave 0.5 -corrupt 0.5 -seed 7 -safety
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"fdp"
)

func main() {
	// Graceful ^C: the first signal closes stop, a second force-kills.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "fdpsim: interrupted, winding down")
		close(stop)
		<-sigc
		os.Exit(130)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("fdpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := fdp.Config{Topology: fdp.Random}
	var (
		corrupt = fs.Float64("corrupt", 0, "initial-state corruption probability (beliefs and anchors)")
		par     = fs.Bool("parallel", false, "run on the sharded runtime (worker pool, one shard per core) instead of the simulator")
		timeout = fs.Duration("timeout", 30*time.Second, "wall-clock budget for -parallel")
		serve   = fs.String("serve", "", "serve /metrics (Prometheus text) and /debug/pprof on this address during the run (e.g. :9090)")
		hold    = fs.Duration("hold", 0, "keep the -serve endpoint up this long after the run finishes")
		journal = fs.String("journal", "", "write the causal event journal (JSONL) to this file; inspect it with fdpreplay")
	)
	fs.IntVar(&cfg.N, "n", 16, "number of processes")
	fdp.NameVar(fs, &cfg.Topology, "topology", "initial topology, as journal headers name it", fdp.Topologies())
	fs.Float64Var(&cfg.LeaveFraction, "leave", 0.5, "fraction of processes leaving")
	fdp.NameVar(fs, &cfg.Pattern, "pattern", "leaver placement, as journal headers name it", fdp.Patterns())
	fdp.NameVar(fs, &cfg.Variant, "variant", "exit or sleep", fdp.Variants())
	fdp.NameVar(fs, &cfg.Oracle, "oracle", "oracle advising leavers", fdp.OracleKinds())
	fdp.NameVar(fs, &cfg.Scheduler, "scheduler", "fair scheduler", fdp.Schedulers())
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed (runs are reproducible)")
	fs.IntVar(&cfg.JunkMessages, "junk", 0, "junk in-flight messages injected into the initial state")
	fs.IntVar(&cfg.MaxSteps, "max-steps", 1<<21, "step budget")
	fs.BoolVar(&cfg.CheckSafety, "safety", true, "check the Lemma 2 safety invariant during the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.CorruptBeliefs, cfg.CorruptAnchors = *corrupt, *corrupt

	if *journal != "" {
		f, err := os.Create(*journal)
		if err != nil {
			fmt.Fprintln(stderr, "fdpsim: -journal:", err)
			return 2
		}
		defer f.Close()
		cfg.Journal = f
	}
	if *serve != "" {
		cfg.Observe = fdp.NewObserver()
		stopServe, err := fdp.ServeObserver(*serve, cfg.Observe, stdout, stderr, "fdpsim")
		if err != nil {
			fmt.Fprintln(stderr, "fdpsim: -serve:", err)
			return 2
		}
		defer stopServe()
	}

	// On stop either engine winds down — the simulator at the next step
	// boundary, the runtime at its next poll — and reports Interrupted.
	cfg.Stop = stop

	var (
		rep fdp.Report
		err error
	)
	if *par {
		rep, err = fdp.SimulateParallel(cfg, *timeout)
	} else {
		rep, err = fdp.Simulate(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fdpsim:", err)
		return 2
	}
	fmt.Fprintf(stdout, "converged:        %v\n", rep.Converged)
	fmt.Fprintf(stdout, "steps:            %d\n", rep.Steps)
	if rep.Rounds > 0 {
		fmt.Fprintf(stdout, "rounds:           %d\n", rep.Rounds)
	}
	fmt.Fprintf(stdout, "messages sent:    %d\n", rep.MessagesSent)
	labels := make([]string, 0, len(rep.MessagesByLabel))
	for label := range rep.MessagesByLabel {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Fprintf(stdout, "  %-14s  %d\n", label+":", rep.MessagesByLabel[label])
	}
	fmt.Fprintf(stdout, "exits:            %d\n", rep.Exits)
	fmt.Fprintf(stdout, "max channel:      %d\n", rep.MaxChannel)
	fmt.Fprintf(stdout, "safety violated:  %v\n", rep.SafetyViolated)
	if *serve != "" && *hold > 0 {
		fmt.Fprintf(stdout, "holding -serve endpoint for %v\n", *hold)
		time.Sleep(*hold)
	}
	if rep.Interrupted {
		// A clean interrupt is not a failed run: the journal written so far
		// is a valid prefix (fdpreplay diagnoses where it stops).
		fmt.Fprintln(stdout, "interrupted before convergence")
		return 0
	}
	if !rep.Converged || rep.SafetyViolated {
		return 1
	}
	return 0
}
