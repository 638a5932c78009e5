package fdp

import (
	"bytes"
	"testing"
	"time"

	"fdp/internal/trace"
)

// TestSimulateJournal exercises the public Journal hook on the sequential
// engine: the emitted journal must be self-describing (header mirrors the
// Config) and satisfy the replay determinism contract.
func TestSimulateJournal(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Simulate(Config{
		N: 20, Topology: Line, LeaveFraction: 0.3, Seed: 4,
		Scheduler: SchedFIFO, CheckSafety: true, Journal: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("run did not converge")
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Engine != trace.EngineSim {
		t.Fatalf("engine = %q, want %q", hdr.Engine, trace.EngineSim)
	}
	if hdr.Scenario.N != 20 || hdr.Scenario.Topology != "line" ||
		hdr.Scenario.Scheduler != "fifo" || hdr.Scenario.Seed != 4 {
		t.Fatalf("header does not mirror the config: %+v", hdr.Scenario)
	}
	if len(recs) == 0 {
		t.Fatal("journal is empty")
	}
	div, err := trace.VerifyReplay(hdr, recs)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("replay diverged: %s", div)
	}
}

// TestSimulateParallelJournal exercises the Journal hook on the concurrent
// runtime: diffable causal records with the runtime engine tag, a header
// naming the scenario that was actually built, usable step stamps, and a
// metrics observer attached beside the journal (the runtime fans hooks out;
// its one-slot sink used to let the journal displace the observer).
func TestSimulateParallelJournal(t *testing.T) {
	var buf bytes.Buffer
	reg := NewObserver()
	rep, err := SimulateParallel(Config{
		N: 12, Topology: Ring, LeaveFraction: 0.4, Seed: 8, Journal: &buf, Observe: reg,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("parallel run did not converge")
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Engine != trace.EngineRuntime {
		t.Fatalf("engine = %q, want %q", hdr.Engine, trace.EngineRuntime)
	}
	if hdr.Scenario.N != 12 || hdr.Scenario.Topology != "ring" || hdr.Scenario.Seed != 8 {
		t.Fatalf("header does not mirror the config: %+v", hdr.Scenario)
	}
	if len(recs) == 0 {
		t.Fatal("journal is empty")
	}
	exits := reg.Counter(`fdp_events_total{engine="runtime",kind="exit"}`, "").Value()
	if rep.Exits == 0 || exits != uint64(rep.Exits) {
		t.Fatalf("observer counted %d exits beside the journal, report says %d", exits, rep.Exits)
	}
	// Step is the executed-action count at emission: per process it never
	// goes backwards, and it is stamped without any ring being enabled.
	lastStep := make(map[string]int)
	maxStep := 0
	for _, r := range recs {
		if r.Step < lastStep[r.Proc] {
			t.Fatalf("step went backwards on %s: %d after %d (cid %d)", r.Proc, r.Step, lastStep[r.Proc], r.CID)
		}
		lastStep[r.Proc] = r.Step
		if r.Step > maxStep {
			maxStep = r.Step
		}
	}
	if maxStep == 0 {
		t.Fatal("every journal record carries step 0")
	}
	if div := trace.Diff(recs, recs); div != nil {
		t.Fatalf("self-diff must be clean: %s", div)
	}
	if _, err := trace.Replay(hdr, recs); err == nil {
		t.Fatal("runtime journals must refuse replay")
	}
}
