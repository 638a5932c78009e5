package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"fdp/internal/sim"
	"fdp/internal/trace"
)

// TestFlightRingWrap pins the ring semantics: a wrapped recorder keeps
// exactly the most recent capacity events, oldest first, and reports the
// snapshot incomplete (the evicted prefix makes it unreplayable).
func TestFlightRingWrap(t *testing.T) {
	fl := trace.NewFlight(4)
	for i := 1; i <= 10; i++ {
		fl.Record(sim.Event{Kind: sim.EvSend, Step: i, CID: uint64(i)})
	}
	if fl.Len() != 4 || fl.Total() != 10 {
		t.Fatalf("len=%d total=%d, want 4/10", fl.Len(), fl.Total())
	}
	recs, complete := fl.Snapshot()
	if complete {
		t.Fatal("wrapped ring claimed a complete snapshot")
	}
	if len(recs) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if want := uint64(7 + i); r.CID != want {
			t.Fatalf("record %d has cid %d, want %d (oldest-first eviction broken)", i, r.CID, want)
		}
	}
	// Events is the raw view Snapshot renders from: same events, same order.
	if evs := fl.Events(); len(evs) != 4 || evs[0].CID != 7 || evs[3].CID != 10 {
		t.Fatalf("Events() = %+v, want the four events cid 7..10", evs)
	}
}

// TestFlightUnwrapped: below capacity the snapshot is the entire stream and
// says so.
func TestFlightUnwrapped(t *testing.T) {
	fl := trace.NewFlight(0) // DefaultFlightCap
	for i := 1; i <= 3; i++ {
		fl.Record(sim.Event{Kind: sim.EvDeliver, Step: i, CID: uint64(i)})
	}
	recs, complete := fl.Snapshot()
	if !complete || len(recs) != 3 {
		t.Fatalf("complete=%v len=%d, want true/3", complete, len(recs))
	}
	if recs[0].CID != 1 || recs[2].CID != 3 {
		t.Fatalf("order broken: %+v", recs)
	}
}

// TestFlightSnapshotJournalRoundTrip: WriteSnapshot emits a journal fragment
// ReadJournal accepts, with the header intact.
func TestFlightSnapshotJournalRoundTrip(t *testing.T) {
	fl := trace.NewFlight(8)
	fl.Record(sim.Event{Kind: sim.EvSend, Step: 1, CID: 7})
	hdr := trace.Header{Version: trace.Version, Engine: trace.EngineNode,
		Scenario: testScenario(4, 1), Node: 2, Nodes: 3}
	var buf bytes.Buffer
	complete, err := fl.WriteSnapshot(&buf, hdr)
	if err != nil || !complete {
		t.Fatalf("WriteSnapshot: complete=%v err=%v", complete, err)
	}
	back, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if !reflect.DeepEqual(back, hdr) {
		t.Fatalf("header did not round-trip:\n got %+v\nwant %+v", back, hdr)
	}
	if len(recs) != 1 || recs[0].CID != 7 {
		t.Fatalf("records did not round-trip: %+v", recs)
	}
}

// TestFlightCompleteSnapshotReplays is the flight recorder's reason to
// exist: hooked into a sequential run whose event count stays under the ring
// capacity, the stall-time snapshot is a complete schedule prefix, so the
// byte-identical replay contract holds for it exactly as for a recorded
// journal — a stuck run's flight dump is debuggable with the same fdpreplay
// tooling as a finished run's journal.
func TestFlightCompleteSnapshotReplays(t *testing.T) {
	s := testScenario(12, 5)
	scn, err := s.BuildScenario()
	if err != nil {
		t.Fatalf("BuildScenario: %v", err)
	}
	sched, err := trace.SchedulerByName(s.Scheduler, s.Seed)
	if err != nil {
		t.Fatalf("SchedulerByName: %v", err)
	}
	variant, err := s.SimVariant()
	if err != nil {
		t.Fatalf("SimVariant: %v", err)
	}
	fl := trace.NewFlight(1 << 16)
	scn.World.AddEventHook(fl.Record)
	res := sim.Run(scn.World, sched, sim.RunOptions{Variant: variant, MaxSteps: 50000})
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	recs, complete := fl.Snapshot()
	if !complete {
		t.Fatalf("ring wrapped at %d events — raise the test capacity", fl.Total())
	}
	hdr := trace.Header{Version: trace.Version, Engine: trace.EngineSim, Scenario: s}
	div, err := trace.VerifyReplay(hdr, recs)
	if err != nil {
		t.Fatalf("VerifyReplay: %v", err)
	}
	if div != nil {
		t.Fatalf("flight snapshot diverged under replay: %v", div)
	}
}
