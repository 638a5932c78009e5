package diffval

import (
	"strings"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/parallel"
	"fdp/internal/sim"
)

// TestEventKindParity is the differential trace check of the obs layer:
// for an identical scenario both engines must emit the same event
// vocabulary. Schedule-dependent kinds (timeout, send, deliver) may differ
// in magnitude — the engines legally explore different schedules — but
// both must emit them, and the schedule-independent exit count must match
// exactly (one exit per leaver on every admissible schedule). Both engines
// count a refused send as a drop and never as a send, so every message that
// entered a channel is a send or one of the scenario's junk messages: on
// the runtime, read at a pause, each is delivered or still queued; on the
// sequential engine, which stops with messages in flight, deliveries are
// bounded by them. The runtime side runs on the seeded clock, over 50
// seeds on two to four shards.
func TestEventKindParity(t *testing.T) {
	scn := churn.Config{
		N: 12, Topology: churn.TopoRandom, LeaveFraction: 0.5, Pattern: churn.LeaveRandom,
		Corrupt: churn.Corruption{FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: 4},
		Variant: core.VariantFDP, Oracle: oracle.Single{}, Seed: 11,
	}
	junk := uint64(scn.Corrupt.JunkMessages)
	kinds := []sim.EventKind{sim.EvTimeout, sim.EvSend, sim.EvDeliver}

	// Sequential engine: count every event per kind from a plain hook.
	seq := churn.Build(scn)
	seqCounts := make(map[sim.EventKind]uint64)
	seq.World.AddEventHook(func(e sim.Event) { seqCounts[e.Kind]++ })
	res := sim.Run(seq.World, sim.NewRandomScheduler(11, 256), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 400000, CheckSafety: true,
	})
	if !res.Converged {
		t.Fatalf("sequential run did not converge: %+v", res)
	}
	for _, k := range kinds {
		if seqCounts[k] == 0 {
			t.Errorf("sequential engine emitted no %v events", k)
		}
	}
	if seqCounts[sim.EvDeliver] > seqCounts[sim.EvSend]+junk {
		t.Errorf("sequential deliveries %d exceed sends %d plus junk %d",
			seqCounts[sim.EvDeliver], seqCounts[sim.EvSend], junk)
	}

	// Concurrent engine, same scenario build.
	for shards := 2; shards <= 4; shards++ {
		for seed := int64(1); seed <= 50; seed++ {
			rt := parallel.NewRuntime(scn.Oracle)
			rt.SetShards(shards)
			mirror(rt, churn.Build(scn).World)
			if !rt.RunSeeded(seed, func(w *sim.World) bool { return w.Legitimate(sim.FDP) },
				time.Millisecond, 30*time.Second) {
				t.Fatalf("shards=%d seed=%d: concurrent run did not converge", shards, seed)
			}
			count := rt.KindCount

			// Exact agreement on the schedule-independent series.
			if seqCounts[sim.EvExit] != count(sim.EvExit) {
				t.Fatalf("shards=%d seed=%d: exit counts differ: sequential %d, concurrent %d",
					shards, seed, seqCounts[sim.EvExit], count(sim.EvExit))
			}
			for _, k := range kinds {
				if count(k) == 0 {
					t.Errorf("shards=%d seed=%d: concurrent engine emitted no %v events", shards, seed, k)
				}
			}
			var queued uint64
			for _, d := range rt.MailboxDepths() {
				queued += uint64(d)
			}
			if count(sim.EvDeliver)+queued != count(sim.EvSend)+junk {
				t.Errorf("shards=%d seed=%d: %d deliveries and %d queued, but %d sends and %d junk",
					shards, seed, count(sim.EvDeliver), queued, count(sim.EvSend), junk)
			}
		}
	}
}

// TestTracesFilledOnDisagreementPlumbing drives both engine runners
// directly and pins that each flight ring renders a non-empty last-K dump
// — the material Run puts into the Verdict when verdicts diverge — and
// that an agreeing Run leaves the Verdict traces empty.
func TestTracesFilledOnDisagreementPlumbing(t *testing.T) {
	cfg := fdpConfig()
	cfg.Scenario.Seed = 3

	seqOut, seq := runSequential(cfg)
	if !seqOut.Converged {
		t.Fatalf("sequential runner did not converge: %+v", seqOut)
	}
	seqTrace := lastEvents(seq.Flight)
	if seqTrace == "" || !strings.Contains(seqTrace, "exit") {
		t.Fatalf("sequential trace missing exit events:\n%s", seqTrace)
	}
	concOut, conc := runConcurrent(cfg, 30*time.Second)
	if !concOut.Converged {
		t.Fatalf("concurrent runner did not converge: %+v", concOut)
	}
	concTrace := lastEvents(conc.Flight)
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
