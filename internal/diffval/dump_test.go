package diffval

import (
	"strings"
	"testing"
	"time"

	"fdp/internal/sim"
	"fdp/internal/trace"
)

// TestDumpJoinableByCausalID is the regression test for the causal
// coordinates in divergence dumps: both engines' trace renderings must
// carry cid= (and the delivery lines msg=), so a cross-engine disagreement
// can be aligned event by event — and joined against journals — instead of
// eyeballed. An earlier revision dumped events without identities, leaving
// the two dumps uncorrelatable.
func TestDumpJoinableByCausalID(t *testing.T) {
	cfg := Config{
		Scenario: trace.Scenario{
			N: 10, Topology: "line", LeaveFraction: 0.3, Pattern: "random",
			Variant: "FDP", Oracle: "SINGLE", Seed: 5,
		},
		MaxSteps: 50000,
		FlightK:  4096,
	}

	_, seqFlight, _ := runSequential(cfg)
	_, concFlight, _ := runConcurrent(cfg, 10*time.Second)
	seqTrace := sim.FormatEvents(seqFlight.Events())
	concTrace := sim.FormatEvents(concFlight.Events())

	for name, tr := range map[string]string{"sequential": seqTrace, "concurrent": concTrace} {
		if !strings.Contains(tr, "cid=") {
			t.Errorf("%s trace lacks causal IDs:\n%.400s", name, tr)
		}
		if !strings.Contains(tr, "clock=") {
			t.Errorf("%s trace lacks Lamport clocks:\n%.400s", name, tr)
		}
		if !strings.Contains(tr, "msg=") {
			t.Errorf("%s trace lacks message identities:\n%.400s", name, tr)
		}
	}

	v := Verdict{Seed: 5, SequentialTrace: seqTrace, ConcurrentTrace: concTrace}
	if dump := v.Dump(); !strings.Contains(dump, "cid=") {
		t.Errorf("Verdict.Dump lost the causal IDs:\n%.400s", dump)
	}
}
