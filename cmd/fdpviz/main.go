// Command fdpviz renders a departure run for inspection: Graphviz DOT
// snapshots of the process graph (explicit edges solid, implicit dashed, as
// in the paper's figures), the Φ potential decay as CSV, and an ASCII plot.
//
// Example:
//
//	fdpviz -n 12 -leave 0.5 -corrupt 0.8 -seed 3 -dot-every 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/metrics"
	"fdp/internal/obs"
	"fdp/internal/oracle"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

func main() {
	var (
		n        = flag.Int("n", 12, "number of processes")
		leave    = flag.Float64("leave", 0.5, "fraction leaving")
		corrupt  = flag.Float64("corrupt", 0.5, "initial corruption probability")
		seed     = flag.Int64("seed", 1, "random seed")
		outDir   = flag.String("out", ".", "output directory for DOT/CSV files")
		dotEvery = flag.Int("dot-every", 0, "emit a DOT snapshot every k steps (0 = only initial and final)")
		maxSteps = flag.Int("max-steps", 1<<21, "step budget")
		mscLines = flag.Int("msc", 0, "also write a message sequence chart of the most recent k events (0 = off)")
	)
	flag.Parse()

	s := churn.Build(churn.Config{
		N: *n, Topology: churn.TopoRandom, LeaveFraction: *leave,
		Pattern: churn.LeaveRandom,
		Corrupt: churn.Corruption{FlipBeliefs: *corrupt, RandomAnchors: *corrupt, JunkMessages: *n},
		Oracle:  oracle.Single{}, Seed: *seed,
	})

	write := func(name, content string) {
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fdpviz:", err)
			os.Exit(2)
		}
		fmt.Println("wrote", path)
	}

	write("pg-initial.dot", s.World.PG().DOT("initial"))

	var flight *trace.Flight
	if *mscLines > 0 {
		flight = trace.NewFlight(*mscLines)
		s.World.AddEventHook(flight.Record)
	}

	// The hook fan-out lets the registry ride alongside the MSC ring: the
	// same run yields both the event chart and the metric series.
	reg := obs.NewRegistry()
	obs.InstrumentWorld(s.World, reg)

	snapshots := 0
	res := sim.Run(s.World, sim.NewRandomScheduler(*seed, 512), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: *maxSteps, CheckEvery: 5,
		Potential: core.Phi,
		OnStep: func(w *sim.World) {
			if *dotEvery > 0 && w.Steps()%*dotEvery == 0 {
				snapshots++
				write(fmt.Sprintf("pg-step%07d.dot", w.Steps()), w.PG().DOT("snapshot"))
			}
		},
	})

	write("pg-final.dot", s.World.PG().DOT("final"))

	if flight != nil {
		// The chart shows what processes did; bounced sends are left out.
		var evs []sim.Event
		for _, e := range flight.Events() {
			if e.Kind != sim.EvDrop {
				evs = append(evs, e)
			}
		}
		write("run.msc", sim.MSC(evs, s.Nodes))
	}

	series := &metrics.Series{Name: "phi"}
	for i := range res.PotentialSteps {
		series.Append(float64(res.PotentialSteps[i]), float64(res.PotentialValues[i]))
	}
	write("phi.csv", series.CSV())
	write("metrics.prom", reg.String())

	fmt.Println()
	fmt.Print(series.ASCIIPlot(64, 14))
	fmt.Printf("\nconverged=%v steps=%d messages=%d exits=%d snapshots=%d\n",
		res.Converged, res.Steps, res.Stats.Sent, res.Stats.Exits, snapshots)
	if !res.Converged {
		os.Exit(1)
	}
}
