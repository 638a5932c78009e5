// Command fdpsweep runs parameter sweeps of the departure protocol and
// emits CSV for plotting: one row per (n, leave fraction, corruption, seed)
// with steps, messages and safety outcome.
//
// Example:
//
//	fdpsweep -n 8,16,32,64 -leave 0.25,0.5,0.75 -corrupt 0,0.5 -seeds 5 > sweep.csv
//	fdpsweep -n 16 -journal-dir sweeps/   # plus one causal journal per run
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"fdp"
	"fdp/internal/churn"
)

// parseList parses a comma-separated list, each item with parse.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func main() {
	// Graceful ^C: the current run stops at its next step boundary, its
	// journal closes cleanly, and the CSV emitted so far stays usable.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "fdpsweep: interrupted, finishing current step")
		close(stop)
		<-sigc
		os.Exit(130)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("fdpsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ns         = fs.String("n", "8,16,32", "comma-separated system sizes")
		leaves     = fs.String("leave", "0.25,0.5,0.75", "comma-separated leave fractions")
		corrupts   = fs.String("corrupt", "0,0.5", "comma-separated corruption probabilities")
		seeds      = fs.Int("seeds", 3, "seeds per configuration")
		maxSteps   = fs.Int("max-steps", 1<<22, "step budget per run")
		journalDir = fs.String("journal-dir", "", "write one causal event journal (JSONL) per run into this directory; inspect with fdpreplay")
	)
	topo := churn.TopoRandom
	fdp.NameVar(fs, &topo, "topology", "initial topology, as journal headers name it", churn.Topologies())
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sizes, err1 := parseList(*ns, strconv.Atoi)
	fracs, err2 := parseList(*leaves, parseFloat)
	corrs, err3 := parseList(*corrupts, parseFloat)
	if err := cmp.Or(err1, err2, err3); err != nil {
		fmt.Fprintln(stderr, "fdpsweep:", err)
		return 2
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "fdpsweep: -journal-dir:", err)
			return 2
		}
	}

	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	fmt.Fprintln(stdout, "n,leave,corrupt,seed,converged,steps,messages,exits,max_channel,safety_ok")
	bad := 0
	for _, n := range sizes {
		for _, frac := range fracs {
			for _, corr := range corrs {
				for seed := 0; seed < *seeds; seed++ {
					if stopped() {
						fmt.Fprintln(stderr, "fdpsweep: interrupted; partial CSV above")
						return 130
					}
					cfg := fdp.Config{
						N: n, Topology: topo, LeaveFraction: frac, Seed: int64(seed),
						CorruptBeliefs: corr, CorruptAnchors: corr, JunkMessages: int(corr * float64(n)),
						MaxSteps: *maxSteps, CheckSafety: true, Stop: stop,
					}
					// One journal per run, named after the sweep coordinates
					// so a failing CSV row maps straight to its journal.
					var jf *os.File
					if *journalDir != "" {
						name := fmt.Sprintf("n%d_leave%.2f_corrupt%.2f_seed%d.jsonl", n, frac, corr, seed)
						f, err := os.Create(filepath.Join(*journalDir, name))
						if err != nil {
							fmt.Fprintln(stderr, "fdpsweep: -journal-dir:", err)
							return 2
						}
						jf, cfg.Journal = f, f
					}
					r, err := fdp.Simulate(cfg)
					if jf != nil {
						if cerr := jf.Close(); err == nil {
							err = cerr
						}
					}
					if err != nil {
						fmt.Fprintln(stderr, "fdpsweep:", err)
						return 2
					}
					if r.Interrupted {
						fmt.Fprintln(stderr, "fdpsweep: interrupted; partial CSV above")
						return 130
					}
					safetyOK := !r.SafetyViolated
					if !r.Converged || !safetyOK {
						bad++
					}
					fmt.Fprintf(stdout, "%d,%.2f,%.2f,%d,%v,%d,%d,%d,%d,%v\n",
						n, frac, corr, seed, r.Converged, r.Steps, r.MessagesSent,
						r.Exits, r.MaxChannel, safetyOK)
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "fdpsweep: %d run(s) failed\n", bad)
		return 1
	}
	return 0
}
