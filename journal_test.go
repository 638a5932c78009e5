package fdp

import (
	"bytes"
	"errors"
	"strings"
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

// failingWriter refuses every write, as a full disk would.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestJournalWriteErrorKeepsReport pins both engines to the same contract: a
// journal that cannot be written fails the call, but the run it recorded
// finished, and its report comes back populated beside the error.
func TestJournalWriteErrorKeepsReport(t *testing.T) {
	cfg := Config{N: 12, Topology: Ring, LeaveFraction: 0.4, Seed: 8, Journal: failingWriter{}}
	for _, tc := range []struct {
		engine string
		run    func() (Report, error)
	}{
		{"Simulate", func() (Report, error) { return Simulate(cfg) }},
		{"SimulateParallel", func() (Report, error) { return SimulateParallel(cfg, 30*time.Second) }},
	} {
		rep, err := tc.run()
		if err == nil || !strings.Contains(err.Error(), "journal write") {
			t.Fatalf("%s: err = %v, want a journal write error", tc.engine, err)
		}
		if !rep.Converged || rep.Exits == 0 || rep.MessagesSent == 0 || rep.Steps == 0 {
			t.Fatalf("%s: report lost beside the journal error: %+v", tc.engine, rep)
		}
	}
}
