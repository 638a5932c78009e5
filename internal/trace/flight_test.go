package trace_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
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
	if fl.Total() != 10 {
		t.Fatalf("total=%d, want 10", fl.Total())
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

// TestFlightOneLaneIsTheSingleRing: an engine that stamps no lane gets the
// recorder it had before lanes existed. Whatever it records, below capacity
// and past it, WriteSnapshot's bytes are the journal of those events — the
// newest capacity of them — in recorded order, untouched by the merge's sort
// (the clocks here run backwards), and complete exactly while nothing was
// evicted.
func TestFlightOneLaneIsTheSingleRing(t *testing.T) {
	const capacity = 8
	hdr := trace.Header{Version: trace.Version, Engine: trace.EngineSim, Scenario: testScenario(4, 1)}
	fl := trace.NewFlight(capacity)
	var recorded []sim.Event
	for i := 1; i <= 2*capacity; i++ {
		e := sim.Event{Kind: sim.EvTimeout, Step: i, CID: uint64(i), Clock: uint64(100 - i)}
		fl.Record(e)
		recorded = append(recorded, e)

		var got, want bytes.Buffer
		complete, err := fl.WriteSnapshot(&got, hdr)
		if err != nil {
			t.Fatal(err)
		}
		kept := recorded[max(0, len(recorded)-capacity):]
		if err := trace.WriteJournal(&want, hdr, trace.FromEvents(kept)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("after %d events the snapshot is\n%s\nwant the single ring's\n%s", i, got.Bytes(), want.Bytes())
		}
		if complete != (i <= capacity) {
			t.Fatalf("after %d events of capacity %d: complete=%v", i, capacity, complete)
		}
	}
}

// TestFlightLanesMergeCausally drives the striped recorder the way the
// runtime's workers do: four goroutines, each on its own lane with its own
// Lamport clock, send each other messages and record the sends and the
// deliveries. In the merged snapshot every delivery follows the send with its
// MsgID although the two sat in different rings, each lane's events keep the
// order they were recorded in, and nothing is lost or doubled.
func TestFlightLanesMergeCausally(t *testing.T) {
	const lanes, rounds = 4, 200
	type msg struct{ id, clock uint64 }
	fl := trace.NewFlight(1 << 14)
	var cids atomic.Uint64
	inbox := make([]chan msg, lanes)
	for i := range inbox {
		inbox[i] = make(chan msg, lanes*rounds) // every message ever sent to one lane fits: no sender blocks
	}
	logs := make([][]uint64, lanes) // per lane, the CIDs in recorded order
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var clock uint64
			record := func(e sim.Event) {
				e.Lane, e.Clock, e.CID = uint8(lane), clock, cids.Add(1)
				if e.Kind == sim.EvSend {
					e.MsgID = e.CID
				}
				fl.Record(e)
				logs[lane] = append(logs[lane], e.CID)
				if e.Kind == sim.EvSend {
					inbox[(lane+1+int(e.CID)%(lanes-1))%lanes] <- msg{id: e.MsgID, clock: clock}
				}
			}
			deliver := func(m msg) {
				clock = max(clock, m.clock) + 1
				record(sim.Event{Kind: sim.EvDeliver, MsgID: m.id})
			}
			for r := 0; r < rounds; r++ {
				clock++
				record(sim.Event{Kind: sim.EvTimeout})
				record(sim.Event{Kind: sim.EvSend})
				select {
				case m := <-inbox[lane]:
					deliver(m)
				default:
				}
			}
		}()
	}
	wg.Wait()
	// What is still queued is delivered on the receiver's lane, single-handed.
	for lane := range inbox {
		close(inbox[lane])
		clock := uint64(1 << 20)
		for m := range inbox[lane] {
			clock++
			e := sim.Event{Kind: sim.EvDeliver, Lane: uint8(lane), MsgID: m.id, Clock: clock, CID: cids.Add(1)}
			fl.Record(e)
			logs[lane] = append(logs[lane], e.CID)
		}
	}

	events := fl.Events()
	if _, complete := fl.Snapshot(); !complete || uint64(len(events)) != cids.Load() || fl.Total() != cids.Load() {
		t.Fatalf("snapshot holds %d of %d events (total %d, complete %v)", len(events), cids.Load(), fl.Total(), complete)
	}
	sent := make(map[uint64]bool)
	perLane := make([][]uint64, lanes)
	delivered := 0
	for i, e := range events {
		switch e.Kind {
		case sim.EvSend:
			sent[e.MsgID] = true
		case sim.EvDeliver:
			delivered++
			if !sent[e.MsgID] {
				t.Fatalf("event %d delivers message %d ahead of its send (lane %d, clock %d)", i, e.MsgID, e.Lane, e.Clock)
			}
		}
		perLane[e.Lane] = append(perLane[e.Lane], e.CID)
	}
	if delivered != lanes*rounds {
		t.Fatalf("%d deliveries in the snapshot, want %d", delivered, lanes*rounds)
	}
	for lane := range logs {
		if !reflect.DeepEqual(perLane[lane], logs[lane]) {
			t.Fatalf("lane %d left the merge out of its recorded order", lane)
		}
	}

	// Past the capacity the merge keeps the newest events, and says so.
	small := trace.NewFlight(16)
	for i := 1; i <= 12; i++ {
		small.Record(sim.Event{Lane: 0, Clock: uint64(2 * i), CID: uint64(i)})
		small.Record(sim.Event{Lane: 1, Clock: uint64(2*i + 1), CID: uint64(100 + i)})
	}
	evs, complete := small.Snapshot()
	if complete || len(evs) != 16 || evs[0].Clock != 10 || evs[15].Clock != 25 {
		t.Fatalf("trimmed merge: complete=%v len=%d clocks %d..%d, want false/16/10..25",
			complete, len(evs), evs[0].Clock, evs[len(evs)-1].Clock)
	}
}

// TestFlightRecordAllocs: a lane's first event allocates its ring, no later
// one allocates anything.
func TestFlightRecordAllocs(t *testing.T) {
	fl := trace.NewFlight(64)
	a, b := sim.Event{Kind: sim.EvSend, Lane: 0}, sim.Event{Kind: sim.EvDeliver, Lane: 3}
	fl.Record(a)
	fl.Record(b)
	if n := testing.AllocsPerRun(1000, func() {
		fl.Record(a)
		fl.Record(b)
	}); n != 0 {
		t.Fatalf("Record allocates %v/op after the lanes' first events", n)
	}
}

// TestFlightCompleteSnapshotIsACut snapshots while a recorder runs: it sends
// on lane 0 and delivers on lane 2, and the long lane 1 between them keeps the
// copy busy for many such pairs. A snapshot that calls itself complete holds
// the send of every delivery it holds; one taken at rest is complete.
func TestFlightCompleteSnapshotIsACut(t *testing.T) {
	const pairs, filler = 12000, 40000
	fl := trace.NewFlight(1 << 16)
	for i := 0; i < filler; i++ {
		fl.Record(sim.Event{Kind: sim.EvTimeout, Lane: 1})
	}
	fl.Record(sim.Event{Kind: sim.EvTimeout, Lane: 0})
	fl.Record(sim.Event{Kind: sim.EvTimeout, Lane: 2})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(1); id <= pairs; id++ {
			fl.Record(sim.Event{Kind: sim.EvSend, Lane: 0, MsgID: id, Clock: 2 * id, CID: 2 * id})
			fl.Record(sim.Event{Kind: sim.EvDeliver, Lane: 2, MsgID: id, Clock: 2*id + 1, CID: 2*id + 1})
			if id%256 == 0 {
				runtime.Gosched() // last through several snapshots
			}
		}
	}()
	closed := func(recs []trace.Record) bool {
		sent := make(map[uint64]bool)
		for _, r := range recs {
			if r.Kind == "send" {
				sent[r.MsgID] = true
			} else if r.Kind == "deliver" && !sent[r.MsgID] {
				return false
			}
		}
		return true
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if recs, complete := fl.Snapshot(); complete && !closed(recs) {
			t.Fatal("a snapshot reported complete holds a delivery without its send")
		}
	}
	recs, complete := fl.Snapshot()
	if !complete || len(recs) != filler+2+2*pairs || !closed(recs) {
		t.Fatalf("snapshot at rest: complete=%v, %d records, want true and %d", complete, len(recs), filler+2+2*pairs)
	}
}
