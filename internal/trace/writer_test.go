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

// TestConcurrentRecordKeepsLinesWhole: records encoded outside the writer
// lock by many goroutines still land as whole lines, each exactly once.
// Run under -race by `make race`.
func TestConcurrentRecordKeepsLinesWhole(t *testing.T) {
	const workers, each = 8, 5000
	var buf bytes.Buffer
	jw := trace.NewWriter(&buf, trace.Header{Version: trace.Version, Engine: trace.EngineRuntime})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				jw.Record(sendEvent(uint64(g*each + i + 1)))
			}
		}(g)
	}
	wg.Wait()
	if jw.Err() != nil || jw.Count() != workers*each {
		t.Fatalf("Count = %d, Err = %v; want %d, nil", jw.Count(), jw.Err(), workers*each)
	}
	_, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(recs) != workers*each {
		t.Fatalf("journal has %d records, want %d", len(recs), workers*each)
	}
	seen := make([]bool, workers*each+1)
	for _, rec := range recs {
		if rec.CID == 0 || rec.CID > workers*each || seen[rec.CID] {
			t.Fatalf("cid %d out of range or duplicated", rec.CID)
		}
		seen[rec.CID] = true
	}
}

// failAfter fails every Write once ok of them have succeeded.
type failAfter struct{ ok, writes int }

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.ok {
		return 0, errSinkFull
	}
	return len(p), nil
}

// TestWriteErrorIsSticky: after the first failed Write the writer reports
// that error for good, drops later records without touching the sink, and
// stops counting.
func TestWriteErrorIsSticky(t *testing.T) {
	sink := &failAfter{ok: 3} // header + two records
	jw := trace.NewWriter(sink, trace.Header{Version: trace.Version, Engine: trace.EngineSim})
	for i := 1; i <= 6; i++ {
		jw.Record(sendEvent(uint64(i)))
	}
	if !errors.Is(jw.Err(), errSinkFull) {
		t.Fatalf("Err = %v, want %v", jw.Err(), errSinkFull)
	}
	if jw.Count() != 2 || sink.writes != 4 {
		t.Fatalf("Count = %d after %d writes, want 2 after 4 (the failed one is the last tried)", jw.Count(), sink.writes)
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
