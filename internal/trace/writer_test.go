package trace_test

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// sendEvent is a representative hot-path event: every optional field set.
func sendEvent(cid uint64) sim.Event {
	return sim.Event{Step: 1234, Kind: sim.EvSend, Proc: ref.ByIndex(41), Peer: ref.ByIndex(9876),
		Label: "present", CID: cid, Parent: cid - 1, MsgID: cid, MsgSeq: 77, Clock: 99, Depth: 3}
}

// lineSink records a journal's Writes, checking each ends a line.
type lineSink struct {
	bytes.Buffer
	torn int
}

func (s *lineSink) Write(p []byte) (int, error) {
	if len(p) == 0 || p[len(p)-1] != '\n' {
		s.torn++
	}
	return s.Buffer.Write(p)
}

// TestConcurrentRecordKeepsLinesWhole: goroutines on four lanes, two of them
// sharing lane 1 as a coordinator shares an owner's lane, each record enough
// to fill their lane's buffer many times. After Err every record is in the
// sink exactly once, every Write ends a line, and each emitter's records keep
// their recorded order. Run under -race by `make race`.
func TestConcurrentRecordKeepsLinesWhole(t *testing.T) {
	const each = 5000
	lanes := []uint8{0, 1, 1, 2, 3}
	workers := len(lanes)
	var sink lineSink
	jw := trace.NewWriter(&sink, trace.Header{Version: trace.Version, Engine: trace.EngineRuntime})
	var wg sync.WaitGroup
	for g, lane := range lanes {
		wg.Add(1)
		go func(g int, lane uint8) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e := sendEvent(uint64(g*each + i + 1))
				e.Proc, e.Lane = ref.ByIndex(g), lane
				jw.Record(e)
			}
		}(g, lane)
	}
	wg.Wait()
	if jw.Err() != nil || jw.Count() != workers*each {
		t.Fatalf("Count = %d, Err = %v; want %d, nil", jw.Count(), jw.Err(), workers*each)
	}
	if sink.torn != 0 {
		t.Fatalf("%d writes did not end a line", sink.torn)
	}
	_, recs, err := trace.ReadJournal(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(recs) != workers*each {
		t.Fatalf("journal has %d records, want %d", len(recs), workers*each)
	}
	last := make([]uint64, workers)
	for _, rec := range recs {
		g := int(rec.CID-1) / each
		if rec.CID == 0 || g >= workers || rec.Proc != ref.ByIndex(g).String() {
			t.Fatalf("cid %d of %s out of range", rec.CID, rec.Proc)
		}
		if rec.CID <= last[g] {
			t.Fatalf("emitter %d: cid %d after %d (duplicated or out of recorded order)", g, rec.CID, last[g])
		}
		last[g] = rec.CID
	}
}

// failAfter fails every Write once ok of them have succeeded, and keeps the
// bytes of those that did.
type failAfter struct {
	ok, writes int
	kept       bytes.Buffer
}

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.ok {
		return 0, errSinkFull
	}
	return f.kept.Write(p)
}

// TestWriteErrorIsSticky: the sink fails on its third buffer. Err reports
// that error for good, no Write is tried after it — later buffers, the lanes
// Err drains, later records — and Count is what the two good buffers held.
func TestWriteErrorIsSticky(t *testing.T) {
	sink := &failAfter{ok: 3} // the header and two buffers
	jw := trace.NewWriter(sink, trace.Header{Version: trace.Version, Engine: trace.EngineSim})
	record := func(n int) {
		for i := 1; i <= n; i++ {
			e := sendEvent(uint64(i))
			e.Lane = uint8(i % 2)
			jw.Record(e)
		}
	}
	record(4000) // some five buffers per lane
	if !errors.Is(jw.Err(), errSinkFull) {
		t.Fatalf("Err = %v, want %v", jw.Err(), errSinkFull)
	}
	record(4000)
	if !errors.Is(jw.Err(), errSinkFull) || sink.writes != 4 {
		t.Fatalf("Err = %v after %d writes, want %v after 4 (the failed one is the last tried)", jw.Err(), sink.writes, errSinkFull)
	}
	_, recs, err := trace.ReadJournal(bytes.NewReader(sink.kept.Bytes()))
	if err != nil {
		t.Fatalf("the written prefix does not read: %v", err)
	}
	if len(recs) == 0 || jw.Count() != len(recs) {
		t.Fatalf("Count = %d, the good buffers hold %d records", jw.Count(), len(recs))
	}
}

// TestRecordDoesNotAllocate extends the AllocsPerRun == 0 guard family
// (obs counters, progress tracker, flight ring) to the journal writer, on
// lanes past its first event and across buffer writes.
func TestRecordDoesNotAllocate(t *testing.T) {
	hdr := trace.Header{Version: trace.Version, Engine: trace.EngineRuntime}
	a, b := sendEvent(1<<41), sendEvent(1<<41)
	b.Lane = 3
	jw := trace.NewWriter(io.Discard, hdr)
	jw.Record(a)
	jw.Record(b)
	if n := testing.AllocsPerRun(1000, func() { jw.Record(a); jw.Record(b) }); n != 0 {
		t.Errorf("Record allocates %v times per two events", n)
	}
	if err := jw.Flush(); err != nil {
		t.Fatalf("writer failed: %v", err)
	}
}

func BenchmarkWriterRecord(b *testing.B) {
	jw := trace.NewWriter(io.Discard, trace.Header{Version: trace.Version, Engine: trace.EngineRuntime})
	e := sendEvent(1 << 41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jw.Record(e)
	}
}
