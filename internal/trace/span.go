package trace

import (
	"fmt"
	"strings"
)

// Hop is one reference-forwarding step inside a departure span: a message
// the departing process sent, and what became of it.
type Hop struct {
	// Send is the send (or drop — a send whose target was already gone)
	// record.
	Send Record
	// Outcome is the delivery of that message at the peer; nil when the
	// message was still in flight when the trace ended, or when the send
	// was dropped (Send.Kind is "drop").
	Outcome *Record
}

// Dropped reports whether the hop's send vanished (target already gone).
func (h Hop) Dropped() bool { return h.Send.Kind == "drop" }

// Delivered reports whether the hop's message reached its peer.
func (h Hop) Delivered() bool { return h.Outcome != nil }

// SpanAction is one atomic action the departing process executed: its
// trigger event (timeout or delivery) and the hops it caused.
type SpanAction struct {
	Trigger Record
	Hops    []Hop
}

// Span is one process's departure story, reconstructed from the causal
// links: every action it executed, each forward/delegation hop those
// actions produced, and the exit (FDP) or final sleep (FSP) that ended it.
type Span struct {
	// Proc is the departing process.
	Proc string
	// Actions are the process's executed actions in trace order.
	Actions []SpanAction
	// End is the exit or sleep record that completed the departure, nil if
	// the trace ended with the departure still in progress.
	End *Record
	// Exited reports a committed exit (End is an exit record).
	Exited bool
}

// Hops counts the span's send hops.
func (s *Span) Hops() int {
	n := 0
	for i := range s.Actions {
		n += len(s.Actions[i].Hops)
	}
	return n
}

// StartStep returns the step of the first action (0 for an empty span).
func (s *Span) StartStep() int {
	if len(s.Actions) == 0 {
		if s.End != nil {
			return s.End.Step
		}
		return 0
	}
	return s.Actions[0].Trigger.Step
}

// EndStep returns the step of the span's last event.
func (s *Span) EndStep() int {
	step := s.StartStep()
	if n := len(s.Actions); n > 0 {
		step = s.Actions[n-1].Trigger.Step
		if hops := s.Actions[n-1].Hops; len(hops) > 0 {
			last := hops[len(hops)-1]
			if last.Outcome != nil && last.Outcome.Step > step {
				step = last.Outcome.Step
			}
		}
	}
	if s.End != nil && s.End.Step > step {
		step = s.End.Step
	}
	return step
}

// BuildSpans reconstructs per-leaver departure spans from a journal. A
// departure span exists for every process that exited (FDP) or slept (FSP):
// its trigger events (timeouts and deliveries, linked to hops through
// Event.Parent), each hop's delivery at the peer (linked through the
// message's causal ID), and the terminating exit/sleep. Spans come back in
// trace order of their first event. For an FDP run the span count equals
// the gone count — one complete span per departed leaver.
func BuildSpans(recs []Record) []*Span {
	return BuildSpansFor(recs, nil)
}

// BuildSpansFor is BuildSpans with explicitly seeded departing processes
// (journal proc names, e.g. "p3"): a span is built for every seed whether or
// not the trace contains its exit/sleep. This is the shape a stall dump
// needs — the watchdog knows exactly which leavers are stuck, and the whole
// point of the dump is that their departures never terminated, so discovery
// by terminator records would come up empty. Terminator discovery still adds
// any departing processes beyond the seeds.
func BuildSpansFor(recs []Record, seeds []string) []*Span {
	// Pass 1: seeds first (in caller order), then the departing processes
	// the trace itself reveals (exit or sleep records), in first-event order.
	spanByProc := make(map[string]*Span)
	var spans []*Span
	for _, proc := range seeds {
		if proc != "" && spanByProc[proc] == nil {
			sp := &Span{Proc: proc}
			spanByProc[proc] = sp
			spans = append(spans, sp)
		}
	}
	for i := range recs {
		rec := &recs[i]
		if rec.Kind != "exit" && rec.Kind != "sleep" {
			continue
		}
		if spanByProc[rec.Proc] == nil {
			sp := &Span{Proc: rec.Proc}
			spanByProc[rec.Proc] = sp
			spans = append(spans, sp)
		}
	}
	// Pass 2: attach trigger actions and terminators; index trigger CIDs so
	// hops can find their action.
	actionAt := make(map[uint64]*Span) // trigger CID -> owning span
	for i := range recs {
		rec := &recs[i]
		sp := spanByProc[rec.Proc]
		if sp == nil {
			continue
		}
		switch rec.Kind {
		case "timeout", "deliver":
			sp.Actions = append(sp.Actions, SpanAction{Trigger: *rec})
			actionAt[rec.CID] = sp
			// Activity after a sleep reopens the departure (FSP processes
			// may wake again); only the final sleep terminates the span.
			if sp.End != nil && !sp.Exited {
				sp.End = nil
			}
		case "exit":
			sp.End = rec
			sp.Exited = true
		case "sleep":
			if !sp.Exited {
				sp.End = rec
			}
		}
	}
	// Pass 3: attach hops to their triggering action via Parent, and index
	// each hop's message CID for outcome resolution.
	type hopAt struct {
		span   *Span
		action int
		hop    int
	}
	hopByMsg := make(map[uint64]hopAt)
	for i := range recs {
		rec := &recs[i]
		if rec.Kind != "send" && rec.Kind != "drop" {
			continue
		}
		sp := actionAt[rec.Parent]
		if sp == nil || rec.Proc != sp.Proc {
			continue
		}
		// The owning action is the last one whose trigger CID matches — and
		// since actionAt is keyed by CID, find it by scanning back (actions
		// are appended in trace order, sends follow their trigger).
		ai := -1
		for j := len(sp.Actions) - 1; j >= 0; j-- {
			if sp.Actions[j].Trigger.CID == rec.Parent {
				ai = j
				break
			}
		}
		if ai < 0 {
			continue
		}
		sp.Actions[ai].Hops = append(sp.Actions[ai].Hops, Hop{Send: *rec})
		if rec.Kind == "send" && rec.MsgID != 0 {
			hopByMsg[rec.MsgID] = hopAt{span: sp, action: ai, hop: len(sp.Actions[ai].Hops) - 1}
		}
	}
	// Pass 4: resolve hop outcomes — the delivery record carrying the hop's
	// message CID.
	for i := range recs {
		rec := &recs[i]
		if rec.Kind != "deliver" || rec.MsgID == 0 {
			continue
		}
		if at, ok := hopByMsg[rec.MsgID]; ok {
			at.span.Actions[at.action].Hops[at.hop].Outcome = rec
		}
	}
	return spans
}

// Tree renders the span as an indented text tree: one line per trigger
// action, one nested line per hop, one line for the terminator.
func (s *Span) Tree() string {
	var b strings.Builder
	state := "in progress"
	if s.End != nil {
		state = s.End.Kind
	}
	fmt.Fprintf(&b, "departure %s: steps %d..%d, %d actions, %d hops, %s\n",
		s.Proc, s.StartStep(), s.EndStep(), len(s.Actions), s.Hops(), state)
	for i := range s.Actions {
		a := &s.Actions[i]
		fmt.Fprintf(&b, "  %s\n", RecordLine(a.Trigger))
		for _, h := range a.Hops {
			fmt.Fprintf(&b, "    %s\n", RecordLine(h.Send))
			if h.Outcome != nil {
				fmt.Fprintf(&b, "      %s\n", RecordLine(*h.Outcome))
			}
		}
	}
	if s.End != nil {
		fmt.Fprintf(&b, "  %s\n", RecordLine(*s.End))
	}
	return b.String()
}

// SpanTrees renders every span's tree, separated by blank lines — the
// fdpreplay -spans output.
func SpanTrees(spans []*Span) string {
	var b strings.Builder
	for i, sp := range spans {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(sp.Tree())
	}
	return b.String()
}
