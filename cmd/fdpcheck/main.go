// Command fdpcheck runs the bounded explicit-state model checker: it
// explores EVERY fair schedule of a small departure scenario up to a depth
// bound and verifies the Lemma 2 safety invariant in each reachable state.
// When a violation exists (e.g. with -oracle unsafe), it prints the exact
// schedule that produces it.
//
// Example:
//
//	fdpcheck -n 3 -leavers 1 -depth 14
//	fdpcheck -n 3 -leavers 1 -depth 10 -oracle unsafe
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fdp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdpcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg fdp.CheckConfig
	fs.IntVar(&cfg.N, "n", 3, "number of processes (keep small: the state space is exponential)")
	fs.IntVar(&cfg.Leavers, "leavers", 1, "number of leaving processes (placed in the middle of the line)")
	fs.IntVar(&cfg.Depth, "depth", 12, "schedule depth bound")
	fs.IntVar(&cfg.MaxStates, "max-states", 1<<20, "state budget")
	fdp.NameVar(fs, &cfg.Oracle, "oracle", "oracle guarding exits (timeout is stateful and cannot be explored)", fdp.OracleKinds())
	fdp.NameVar(fs, &cfg.Variant, "variant", "exit or sleep", fdp.Variants())
	fdp.NameVar(fs, &cfg.Topology, "topology", "initial topology", fdp.Topologies())
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := fdp.CheckSchedules(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "fdpcheck:", err)
		return 2
	}

	fmt.Fprintf(stdout, "topology=%s n=%d leavers=%d oracle=%s variant=%s\n",
		cfg.Topology, cfg.N, cfg.Leavers, cfg.Oracle, cfg.Variant)
	trunc := ""
	if rep.Truncated {
		trunc = " (TRUNCATED by -max-states)"
	}
	fmt.Fprintf(stdout, "states explored:     %d%s\n", rep.StatesExplored, trunc)
	fmt.Fprintf(stdout, "depth reached:       %d\n", rep.DepthReached)
	fmt.Fprintf(stdout, "legitimate states:   %d\n", rep.LegitimateStates)
	fmt.Fprintf(stdout, "frontier (undecided): %d\n", rep.Frontier)
	if rep.Safe {
		fmt.Fprintln(stdout, "result: SAFE on every explored schedule")
		return 0
	}
	fmt.Fprintln(stdout, "result: VIOLATION FOUND")
	fmt.Fprintln(stdout, rep.Counterexample)
	return 1
}
