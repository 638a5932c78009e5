package trace

import (
	"io"
	"sync"

	"fdp/internal/sim"
)

// Flight is the always-on flight recorder: a bounded ring of the most
// recent engine events, kept so a *stuck* run can produce the same
// artifacts a finished run does. The watchdog (DESIGN.md §16) snapshots it
// on stall into a journal fragment — joinable, diffable and, when the ring
// never wrapped (the snapshot is a complete prefix of the run), replayable
// by cmd/fdpreplay like any committed journal.
//
// Record stores raw sim.Events (no FromEvent conversion, no allocation —
// the ring is pre-allocated at NewFlight); rendering to Records happens at
// snapshot time, off the hot path. Locking: the ring mutex is a leaf, held
// only for the copy-in/copy-out — never across rendering or I/O — which is
// why the snapshot is taken first and written after (see WriteSnapshot).
type Flight struct {
	mu   sync.Mutex //fdp:lockleaf
	buf  []sim.Event
	next int
	n    int
	// total counts every event ever offered, so Snapshot can report
	// whether the ring wrapped (total > len(buf)).
	total uint64
}

// DefaultFlightCap is the ring capacity NewFlight substitutes for a
// non-positive request.
const DefaultFlightCap = 4096

// NewFlight returns a recorder keeping the most recent capacity events.
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Flight{buf: make([]sim.Event, capacity)}
}

// Record appends one event, evicting the oldest when full. Hook-shaped:
// install with AddEventHook on either engine. Safe for concurrent use;
// allocation-free.
func (f *Flight) Record(e sim.Event) {
	f.mu.Lock()
	f.buf[f.next] = e
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
	}
	if f.n < len(f.buf) {
		f.n++
	}
	f.total++
	f.mu.Unlock()
}

// Len returns how many events the ring currently holds.
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Total returns how many events were ever recorded.
func (f *Flight) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Events returns a copy of the retained raw events, oldest first — what
// the divergence dumps (sim.FormatEvents) and fdpviz's sequence chart
// (sim.MSC) render from.
func (f *Flight) Events() []sim.Event {
	events, _ := f.events()
	return events
}

// events copies the ring out under the mutex; complete reports that the
// ring never wrapped.
func (f *Flight) events() (events []sim.Event, complete bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	events = make([]sim.Event, 0, f.n)
	if f.n == len(f.buf) && f.total > uint64(f.n) {
		events = append(events, f.buf[f.next:]...)
		events = append(events, f.buf[:f.next]...)
	} else {
		events = append(events, f.buf[:f.n]...)
	}
	return events, f.total == uint64(f.n)
}

// Snapshot renders the ring's contents, oldest first, as journal records.
// complete reports that the ring never wrapped — the snapshot is the run's
// entire event stream from step 0 and therefore satisfies the replay
// contract (an incomplete snapshot is still joinable and diffable, but a
// replay would need the evicted prefix). The events are copied out under
// the ring mutex and rendered after it is released.
func (f *Flight) Snapshot() (recs []Record, complete bool) {
	events, complete := f.events()
	return FromEvents(events), complete
}

// WriteSnapshot writes the current snapshot as a journal fragment (header
// plus records, Writer format). It returns the snapshot's completeness
// alongside any write error; a complete fragment verifies byte-identically
// under the replay contract.
func (f *Flight) WriteSnapshot(w io.Writer, hdr Header) (complete bool, err error) {
	recs, complete := f.Snapshot()
	return complete, WriteJournal(w, hdr, recs)
}
