//go:build !race

package trace_test

import (
	"io"
	"testing"

	"fdp/internal/trace"
)

// Not under -race: there sync.Pool drops a quarter of what is Put on
// purpose, and the line buffers come from one.

// TestRecordDoesNotAllocate extends the AllocsPerRun == 0 guard family
// (obs counters, progress tracker, flight ring) to both journal writers.
func TestRecordDoesNotAllocate(t *testing.T) {
	hdr := trace.Header{Version: trace.Version, Engine: trace.EngineRuntime}
	e := sendEvent(1 << 41)
	jw := trace.NewWriter(io.Discard, hdr)
	if n := testing.AllocsPerRun(1000, func() { jw.Record(e) }); n != 0 {
		t.Errorf("Writer.Record allocates %v times per event", n)
	}
	sw := trace.NewStreamWriter(io.Discard, hdr)
	if n := testing.AllocsPerRun(1000, func() { sw.Record(e) }); n != 0 {
		t.Errorf("StreamWriter.Record allocates %v times per event", n)
	}
	if jw.Err() != nil || sw.Flush() != nil {
		t.Fatalf("writers failed: %v, %v", jw.Err(), sw.Err())
	}
}
