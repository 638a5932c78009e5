package trace_test

import (
	"io"
	"sync"
	"testing"

	"fdp/internal/obs"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// BenchmarkObservedEmit prices one event crossing the observer stack the
// benchmark's rt_observed attaches — a per-kind counter, Progress.NoteEvent,
// Flight.Record, the journal Writer to io.Discard — while a second goroutine
// pushes events through the same stack: once with both emitters on lane 0,
// where every striped observer is shared, once on lanes 0 and 1, as two shard
// workers emit. The single-goroutine probes (obs.progress_note_ns,
// trace.flight_record_ns) cannot show the difference between the two. On two
// lanes the emitters share no lock but the Writer's, once per line buffer.
// ns/op is wall time per event of either goroutine: one emitter's own price
// is about twice that.
func BenchmarkObservedEmit(b *testing.B) {
	for _, c := range []struct {
		name  string
		lanes [2]uint8
	}{{"one-lane", [2]uint8{0, 0}}, {"two-lanes", [2]uint8{0, 1}}} {
		b.Run(c.name, func(b *testing.B) {
			const procs = 1024
			leavers := make([]ref.Ref, 0, procs/2)
			for i := 0; i < procs; i += 2 {
				leavers = append(leavers, ref.ByIndex(i))
			}
			reg := obs.NewRegistry()
			var kinds [sim.NumEventKinds]*obs.Counter
			for k := range kinds {
				kinds[k] = reg.Counter(obs.MetricEvents+`{kind="`+sim.EventKind(k).String()+`"}`, "")
			}
			prog := obs.NewProgress(reg, "", leavers)
			flight := trace.NewFlight(0)
			jw := trace.NewWriter(io.Discard, trace.Header{Version: trace.Version, Engine: trace.EngineRuntime})
			sink := func(e sim.Event) {
				kinds[e.Kind].Inc()
				prog.NoteEvent(e)
				flight.Record(e)
				jw.Record(e)
			}
			// A timeout, its sends, and the deliveries they cause, each
			// goroutine over its own half of the processes, as a shard's worker
			// emits for the processes it owns.
			shape := [...]sim.EventKind{sim.EvTimeout, sim.EvSend, sim.EvSend, sim.EvDeliver, sim.EvDeliver}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g, lane := range c.lanes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := sendEvent(1 << 41)
					e.Lane = lane
					for i := g; i < b.N; i += 2 {
						e.Kind = shape[(i/2)%len(shape)]
						e.Proc = ref.ByIndex(g*procs/2 + (i/2)%(procs/2))
						e.CID++
						sink(e)
					}
				}()
			}
			wg.Wait()
			if jw.Err() != nil {
				b.Fatal(jw.Err())
			}
		})
	}
}
