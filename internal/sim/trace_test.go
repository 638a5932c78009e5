package sim

import (
	"strings"
	"testing"
	"unsafe"

	"fdp/internal/ref"
)

// recorder is the tests' hook consumer: it keeps every event the world
// emits (the world is single-threaded, so a plain slice is enough).
type recorder struct{ events []Event }

func (r *recorder) record(e Event) { r.events = append(r.events, e) }

func (r *recorder) countByKind() map[EventKind]int {
	out := make(map[EventKind]int)
	for _, e := range r.events {
		out[e.Kind]++
	}
	return out
}

// Event.Lane rides in the padding after Kind. Every hook takes an Event by
// value and the flight rings store them: a field that grew the struct would
// tax every observed event on both engines.
func TestEventSizeUnchangedByLane(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 112 {
		t.Fatalf("sim.Event is %d bytes, want 112", got)
	}
}

// Regression: attaching a consumer used to overwrite the world's single
// event hook, so the second of two consumers silently starved the first.
// With the hook fan-out every attached consumer sees every event, and a
// nil hook is ignored.
func TestRecorderAttachTwoConsumers(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa := newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Staying, newFixture())

	first, second := &recorder{}, &recorder{}
	w.AddEventHook(first.record)
	w.AddEventHook(nil)
	w.AddEventHook(second.record)

	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(b, NewMessage("x")) }
	w.Execute(Action{Proc: a, IsTimeout: true})
	w.Execute(Action{Proc: b, MsgIndex: 0})

	if len(first.events) == 0 {
		t.Fatal("first consumer starved after a second AddEventHook")
	}
	if len(second.events) != len(first.events) {
		t.Fatalf("second consumer saw %d events, first saw %d", len(second.events), len(first.events))
	}
}

func TestRecorderAttachAndDump(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa, fb := newFixture(), newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Staying, fb)
	rec := &recorder{}
	w.AddEventHook(rec.record)
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(b, NewMessage("hello")) }
	w.Execute(Action{Proc: a, IsTimeout: true})
	w.Execute(Action{Proc: b, MsgIndex: 0})
	if e := rec.events[0]; e.Kind != EvTimeout || e.Proc != a {
		t.Fatalf("first event %+v, want a's timeout", e)
	}
	for _, e := range rec.events[1:] {
		if e.Label != "hello" {
			t.Fatalf("event %+v lost the message label", e)
		}
	}
	counts := rec.countByKind()
	if counts[EvTimeout] != 1 || counts[EvSend] != 1 || counts[EvDeliver] != 1 {
		t.Fatalf("counts wrong: %v", counts)
	}
}

func TestForceAsleep(t *testing.T) {
	space := ref.NewSpace()
	a := space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Leaving, newFixture())
	w.ForceAsleep(a)
	if w.LifeOf(a) != Asleep {
		t.Fatal("ForceAsleep must set the asleep state")
	}
	for _, act := range w.EnabledActions() {
		if act.Proc == a && act.IsTimeout {
			t.Fatal("forced-asleep process must have no enabled timeout")
		}
	}
}

// undeliverableProto records bounce notifications.
type undeliverableProto struct {
	fixtureProto
	bounced []Message
}

func (u *undeliverableProto) Undeliverable(ctx Context, to ref.Ref, msg Message) {
	u.bounced = append(u.bounced, msg)
}

func TestUndeliverableHook(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	ua := &undeliverableProto{}
	ua.fixtureProto = *newFixture()
	fb := newFixture()
	fb.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Exit() }
	w.AddProcess(a, Staying, ua)
	w.AddProcess(b, Leaving, fb)
	w.Execute(Action{Proc: b, IsTimeout: true}) // b exits
	ua.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(b, NewMessage("lost")) }
	w.Execute(Action{Proc: a, IsTimeout: true})
	if len(ua.bounced) != 1 || ua.bounced[0].Label != "lost" {
		t.Fatalf("undeliverable hook not invoked: %v", ua.bounced)
	}
	if w.Stats().Dropped != 1 {
		t.Fatal("drop not counted")
	}
}

func TestUndeliverableNotCalledForDeliverable(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	ua := &undeliverableProto{}
	ua.fixtureProto = *newFixture()
	w.AddProcess(a, Staying, ua)
	w.AddProcess(b, Staying, newFixture())
	ua.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(b, NewMessage("fine")) }
	w.Execute(Action{Proc: a, IsTimeout: true})
	if len(ua.bounced) != 0 {
		t.Fatal("bounce on successful delivery")
	}
}

func TestMSCRendering(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa, fb := newFixture(), newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Staying, fb)
	rec := &recorder{}
	w.AddEventHook(rec.record)
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(b, NewMessage("hello")) }
	w.Execute(Action{Proc: a, IsTimeout: true})
	w.Execute(Action{Proc: b, MsgIndex: 0})
	msc := MSC(rec.events, []ref.Ref{a, b})
	if !strings.Contains(msc, "send:hello") {
		t.Fatalf("send missing:\n%s", msc)
	}
	if !strings.Contains(msc, "recv:hello") {
		t.Fatalf("recv missing:\n%s", msc)
	}
	if !strings.Contains(msc, "timeout") {
		t.Fatalf("timeout missing:\n%s", msc)
	}
	// Header has one column per process.
	first := strings.SplitN(msc, "\n", 2)[0]
	if !strings.Contains(first, a.String()) || !strings.Contains(first, b.String()) {
		t.Fatalf("header wrong: %q", first)
	}
}
