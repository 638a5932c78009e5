package trace

import (
	"cmp"
	"io"
	"slices"
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
// Record stores raw sim.Events (no FromEvent conversion); rendering to
// Records happens at snapshot time, off the hot path. There is one ring per
// Event.Lane, each behind its own leaf mutex and allocated on the lane's
// first event, so recorders on different lanes (the runtime's shard workers)
// share no cache line; the memory bound is lanes in use × capacity events.
// An engine that stamps no lane (the sequential world, the node pump) fills
// lane 0 only and gets exactly the single ring: its events in recorded
// order. Several lanes are merged when a snapshot is taken (events).
// Locking: a ring mutex is held only for the copy-in/copy-out — never across
// rendering or I/O, never two at once — which is why the snapshot is taken
// first and written after (see WriteSnapshot).
type Flight struct {
	capacity int
	lanes    lanes[ring]
}

// ring is one lane's share of a Flight. Its 56 bytes take a 64-byte
// allocation: no two rings' mutexes share a cache line.
type ring struct {
	mu   sync.Mutex //fdp:lockleaf
	buf  []sim.Event
	next int
	n    int
	// total counts every event ever offered, so a snapshot can report
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
	return &Flight{capacity: capacity}
}

// Record appends one event to its lane's ring, evicting the lane's oldest
// when full. Hook-shaped: install with AddEventHook on either engine. Safe
// for concurrent use; allocation-free after a lane's first event.
func (f *Flight) Record(e sim.Event) {
	r := f.lanes.get(e.Lane, f.newRing)
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// newRing allocates one lane's ring.
func (f *Flight) newRing() *ring { return &ring{buf: make([]sim.Event, f.capacity)} }

// Total returns how many events were ever recorded.
func (f *Flight) Total() uint64 {
	total, _ := f.tally()
	return total
}

// tally sums the lanes' totals and counts the lanes in use.
func (f *Flight) tally() (total uint64, lanes int) {
	f.lanes.each(func(r *ring) {
		lanes++
		r.mu.Lock()
		total += r.total
		r.mu.Unlock()
	})
	return total, lanes
}

// Events returns a copy of the retained raw events, oldest first — what
// fdpviz's sequence chart (sim.MSC) renders from.
func (f *Flight) Events() []sim.Event {
	events, _ := f.events()
	return events
}

// events copies the rings out, each under its own mutex; complete reports
// that the result is every event recorded up to one instant. One lane in use
// yields that ring as it is. Several are concatenated and stably sorted on
// the Lamport clock, then the causal id: an event follows its causes (a
// delivery's clock exceeds its send's; the events of one action share a clock
// and draw ascending ids, and an exit the coordinator commits draws its id
// after the action that asked for it, whichever lane either landed on), and
// events the order does not relate keep their lane's recorded order. The
// merge is trimmed to the newest capacity events. The lanes of a running
// system are not copied at one instant, so a snapshot may hold an event whose
// cause reached an already copied lane later — as a wrapped ring holds
// deliveries whose sends it evicted — and is then not complete: the totals
// are read again after the last copy, and only if no lane moved between its
// copy and that second read (every copy precedes every second read, so all
// lanes stood still at one moment in between) is the copy a cut of the run.
func (f *Flight) events() (events []sim.Event, complete bool) {
	events, complete = []sim.Event{}, true
	used := 0
	var copied uint64
	f.lanes.each(func(r *ring) {
		used++
		r.mu.Lock()
		copied += r.total
		if r.total > uint64(r.n) {
			complete = false
			events = append(events, r.buf[r.next:]...)
			events = append(events, r.buf[:r.next]...)
		} else {
			events = append(events, r.buf[:r.n]...)
		}
		r.mu.Unlock()
	})
	// One lane all along was copied under one lock.
	if total, lanes := f.tally(); lanes > 1 && total != copied {
		complete = false
	}
	if used > 1 {
		slices.SortStableFunc(events, func(a, b sim.Event) int {
			return cmp.Or(cmp.Compare(a.Clock, b.Clock), cmp.Compare(a.CID, b.CID))
		})
		if drop := len(events) - f.capacity; drop > 0 {
			events, complete = events[drop:], false
		}
	}
	return events, complete
}

// Snapshot renders the rings' contents, oldest first, as journal records.
// complete reports that no ring wrapped, nothing was trimmed and no lane took
// an event while another was being copied — the snapshot is the run's entire
// event stream from step 0 up to one instant and therefore satisfies the
// replay contract (an incomplete snapshot is still joinable and diffable, but
// a replay would need the evicted prefix or the missed events; snapshot a
// quiesced run, or again, for a complete one). The events are copied out
// under the ring mutexes and rendered after they are released.
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
