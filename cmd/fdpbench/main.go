// Command fdpbench runs the reproduction suite E1–E16 and prints every
// table and figure recorded in EXPERIMENTS.md.
//
// Example:
//
//	fdpbench -quick          # CI scale (seconds)
//	fdpbench                 # full scale (minutes)
//	fdpbench -only E5,E6     # a subset
//	fdpbench -only E16       # differential simulator-vs-runtime validation
//	fdpbench -quick -json    # machine-readable summary for CI
//	fdpbench -quick -bench -bench-out out/   # BENCH_<engine>.json artifacts
//	fdpbench -bench -sizes 1000,10000,100000 # large-n churn series
//	fdpbench -bench -serve :9090             # live /metrics while benching
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"fdp"
)

// parseSizes parses the -sizes value: a comma-separated, strictly
// increasing list of positive system sizes. An empty string selects the
// scale's default series (nil).
func parseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var sizes []int
	for _, field := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return nil, fmt.Errorf("-sizes: %q is not an integer", strings.TrimSpace(field))
		}
		if n <= 0 {
			return nil, fmt.Errorf("-sizes: size %d must be positive", n)
		}
		if len(sizes) > 0 && n <= sizes[len(sizes)-1] {
			return nil, fmt.Errorf("-sizes: %d after %d — the list must be strictly increasing", n, sizes[len(sizes)-1])
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// writeBench runs the benchmark harness and writes one BENCH_<engine>.json
// per engine into dir.
func writeBench(quick bool, sizes []int, dir string, reg *fdp.Observer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rep := range fdp.BenchSizes(quick, sizes, reg) {
		payload, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+rep.Engine+".json")
		if err := os.WriteFile(path, append(payload, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s, unit=%s, %d sizes)\n", path, rep.Name, rep.Unit, len(rep.Series))
	}
	return nil
}

// jsonReport is the machine-readable form of one experiment.
type jsonReport struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Claim  string   `json:"claim"`
	Pass   bool     `json:"pass"`
	Tables []string `json:"tables,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "run at CI scale")
		only     = flag.String("only", "", "comma-separated experiment IDs (e.g. E2,E5)")
		asJSON   = flag.Bool("json", false, "emit a JSON array instead of text tables")
		noPlots  = flag.Bool("no-plots", false, "suppress ASCII plots in text mode")
		bench    = flag.Bool("bench", false, "run the time-to-exit benchmark harness instead of the experiment suite")
		benchOut = flag.String("bench-out", ".", "directory for the BENCH_<engine>.json artifacts of -bench")
		sizes    = flag.String("sizes", "", "with -bench: comma-separated, strictly increasing system sizes (e.g. 1000,10000,100000); empty keeps the default series")
		serve    = flag.String("serve", "", "serve /metrics and /debug/pprof on this address while running (e.g. :9090)")
	)
	flag.Parse()

	// The suite has no mid-run stop hook; a graceful ^C still deserves a
	// message and a conventional exit code. Artifacts are written whole per
	// experiment, so whatever is on disk at this point is complete.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "fdpbench: interrupted")
		os.Exit(130)
	}()

	var reg *fdp.Observer
	if *serve != "" {
		reg = fdp.NewObserver()
		stopServe, err := fdp.ServeObserver(*serve, reg, os.Stdout, os.Stderr, "fdpbench")
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdpbench: -serve:", err)
			os.Exit(2)
		}
		defer stopServe()
	}
	benchSizes, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdpbench:", err)
		os.Exit(2)
	}
	if benchSizes != nil && !*bench {
		fmt.Fprintln(os.Stderr, "fdpbench: -sizes requires -bench")
		os.Exit(2)
	}
	if *bench {
		if err := writeBench(*quick, benchSizes, *benchOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, "fdpbench: -bench:", err)
			os.Exit(2)
		}
		return
	}

	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			wanted[id] = true
		}
	}

	failures := 0
	var jsonOut []jsonReport
	for _, r := range fdp.Experiments(*quick) {
		if len(wanted) > 0 && !wanted[r.ID] {
			continue
		}
		if !r.Pass {
			failures++
		}
		if *asJSON {
			jsonOut = append(jsonOut, jsonReport{
				ID: r.ID, Title: r.Title, Claim: r.Claim, Pass: r.Pass,
				Tables: r.Tables, Notes: r.Notes,
			})
			continue
		}
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Printf("=== %s: %s [%s]\n", r.ID, r.Title, status)
		fmt.Printf("claim: %s\n\n", r.Claim)
		for _, tb := range r.Tables {
			fmt.Println(tb)
		}
		if !*noPlots {
			for _, p := range r.Plots {
				fmt.Println(p)
			}
		}
		for _, n := range r.Notes {
			fmt.Printf("note: %s\n", n)
		}
		fmt.Println()
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "fdpbench:", err)
			os.Exit(2)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "fdpbench: %d experiment(s) failed\n", failures)
		os.Exit(1)
	}
}
