package diffval

import (
	"strings"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/sim"
)

// TestEventKindParity is the differential trace check of the obs layer:
// for an identical scenario both engines must emit the same event
// vocabulary. Schedule-dependent kinds (timeout, send, deliver) may differ
// in magnitude — the engines legally explore different schedules — but
// both must emit them, and the schedule-independent exit count must match
// exactly (one exit per leaver on every admissible schedule).
func TestEventKindParity(t *testing.T) {
	scn := churn.Config{
		N: 12, Topology: churn.TopoRandom, LeaveFraction: 0.5, Pattern: churn.LeaveRandom,
		Corrupt: churn.Corruption{FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: 4},
		Variant: core.VariantFDP, Oracle: oracle.Single{}, Seed: 11,
	}

	// Sequential engine: count every event per kind from a plain hook.
	seq := churn.Build(scn)
	seqCounts := make(map[sim.EventKind]int)
	seq.World.AddEventHook(func(e sim.Event) { seqCounts[e.Kind]++ })
	res := sim.Run(seq.World, sim.NewRandomScheduler(11, 256), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 400000, CheckSafety: true,
	})
	if !res.Converged {
		t.Fatalf("sequential run did not converge: %+v", res)
	}

	// Concurrent engine, same scenario build.
	conc := churn.Build(scn)
	rt := MirrorWorld(conc.World, scn.Oracle)
	if !rt.RunUntil(func(w *sim.World) bool { return w.Legitimate(sim.FDP) },
		time.Millisecond, 30*time.Second) {
		t.Fatal("concurrent run did not converge")
	}
	concCounts := rt.EventKindCounts()

	// Exact agreement on the schedule-independent series.
	if uint64(seqCounts[sim.EvExit]) != concCounts[sim.EvExit] {
		t.Fatalf("exit counts differ: sequential %d, concurrent %d",
			seqCounts[sim.EvExit], concCounts[sim.EvExit])
	}
	// Tolerance check on the schedule-dependent series: both engines must
	// emit the kind at all, and deliveries can never exceed what entered
	// the channels (sends minus drops plus initial junk).
	for _, k := range []sim.EventKind{sim.EvTimeout, sim.EvSend, sim.EvDeliver} {
		if seqCounts[k] == 0 {
			t.Errorf("sequential engine emitted no %v events", k)
		}
		if concCounts[k] == 0 {
			t.Errorf("concurrent engine emitted no %v events", k)
		}
	}
	initialJunk := uint64(scn.Corrupt.JunkMessages)
	if max := concCounts[sim.EvSend] - concCounts[sim.EvDrop] + initialJunk; concCounts[sim.EvDeliver] > max {
		t.Errorf("concurrent deliveries %d exceed enqueued messages %d",
			concCounts[sim.EvDeliver], max)
	}
	if rt.KindCount(sim.EvSend) != concCounts[sim.EvSend] {
		t.Errorf("KindCount disagrees with EventKindCounts: %d vs %d",
			rt.KindCount(sim.EvSend), concCounts[sim.EvSend])
	}
}

// TestTracesFilledOnDisagreementPlumbing drives both engine runners
// directly and pins that each flight ring renders a non-empty last-K dump
// — the material Run puts into the Verdict when verdicts diverge — and
// that an agreeing Run leaves the Verdict traces empty.
func TestTracesFilledOnDisagreementPlumbing(t *testing.T) {
	cfg := fdpConfig()
	cfg.Scenario.Seed = 3

	seqOut, seqFlight, _ := runSequential(cfg)
	if !seqOut.Converged {
		t.Fatalf("sequential runner did not converge: %+v", seqOut)
	}
	seqTrace := sim.FormatEvents(seqFlight.Events())
	if seqTrace == "" || !strings.Contains(seqTrace, "exit") {
		t.Fatalf("sequential trace missing exit events:\n%s", seqTrace)
	}
	concOut, concFlight, _ := runConcurrent(cfg, 30*time.Second)
	if !concOut.Converged {
		t.Fatalf("concurrent runner did not converge: %+v", concOut)
	}
	concTrace := sim.FormatEvents(concFlight.Events())
	if concTrace == "" || !strings.Contains(concTrace, "exit") {
		t.Fatalf("concurrent trace missing exit events:\n%s", concTrace)
	}

	v := Run(cfg, 3)
	if !v.Agree() {
		t.Fatalf("engines unexpectedly disagreed: %+v", v)
	}
	if v.SequentialTrace != "" || v.ConcurrentTrace != "" || v.Dump() != "" {
		t.Fatal("agreeing verdict should carry no traces")
	}
	// The Dump rendering itself, on a synthetic disagreement.
	v.SequentialTrace, v.ConcurrentTrace = seqTrace, concTrace
	if d := v.Dump(); !strings.Contains(d, "diverged") || !strings.Contains(d, "exit") {
		t.Fatalf("Dump rendering incomplete:\n%s", d)
	}
}
