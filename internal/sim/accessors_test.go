package sim

import (
	"reflect"
	"testing"

	"fdp/internal/ref"
)

func TestEnumStrings(t *testing.T) {
	if Staying.String() != "staying" || Leaving.String() != "leaving" ||
		Unknown.String() != "unknown" || Absent.String() != "absent" {
		t.Fatal("Mode strings wrong")
	}
	if Awake.String() != "awake" || Asleep.String() != "asleep" || Gone.String() != "gone" {
		t.Fatal("Life strings wrong")
	}
	if FDP.String() != "FDP" || FSP.String() != "FSP" {
		t.Fatal("Variant strings wrong")
	}
	kinds := []EventKind{EvTimeout, EvDeliver, EvSend, EvDrop, EvExit, EvSleep, EvWake}
	names := []string{"timeout", "deliver", "send", "drop", "exit", "sleep", "wake"}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Fatalf("EventKind %d = %q, want %q", i, k.String(), names[i])
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewRandomScheduler(1, 0).Name() != "random" ||
		NewRoundScheduler().Name() != "rounds" ||
		NewAdversarialScheduler(1, 0).Name() != "adversarial" ||
		NewFIFOScheduler().Name() != "fifo" {
		t.Fatal("scheduler names wrong")
	}
}

func TestRefInfoAndMessageAccessors(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	ri := RefInfo{Ref: a, Mode: Leaving}
	if ri.String() != a.String()+":leaving" {
		t.Fatalf("RefInfo.String = %q", ri.String())
	}
	w := NewWorld(nil)
	fa, fb := newFixture(), newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Staying, fb)
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(b, NewMessage("x")) }
	w.Execute(Action{Proc: a, IsTimeout: true})
	msg := w.ChannelSnapshot(b)[0]
	if msg.From() != a {
		t.Fatal("From accessor wrong")
	}
	if msg.Seq() == 0 {
		t.Fatal("Seq accessor wrong")
	}
}

func TestWorldHasAndCounters(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Staying, newFixture())
	if !w.Has(a) || w.Has(b) {
		t.Fatal("Has wrong")
	}
	lp := newFixture()
	lp.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Exit() }
	w.AddProcess(b, Leaving, lp)
	if w.LeavingRemaining() != 1 {
		t.Fatal("LeavingRemaining wrong")
	}
	w.Execute(Action{Proc: b, IsTimeout: true})
	if w.LeavingRemaining() != 0 {
		t.Fatal("LeavingRemaining after exit wrong")
	}
}

func TestRelevantPGAndGraphString(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa := newFixture()
	fa.refs.Add(b)
	w.AddProcess(a, Staying, fa)
	sleeper := newFixture()
	sleeper.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Sleep() }
	w.AddProcess(b, Leaving, sleeper)
	pg := w.RelevantPG()
	if !pg.HasEdge(a, b) {
		t.Fatal("relevant PG missing edge to relevant (non-hibernating) process")
	}
	if pg.String() == "" {
		t.Fatal("graph String empty")
	}
	// b sleeps but is still reachable from awake a => relevant.
	w.Execute(Action{Proc: b, IsTimeout: true})
	if !w.RelevantPG().HasNode(b) {
		t.Fatal("reachable sleeper is relevant")
	}
	// After a drops the ref, b hibernates and leaves the relevant PG. The
	// removal happens outside an atomic action, so the ledger and the
	// hibernation memo must be invalidated explicitly.
	fa.refs.Remove(b)
	w.InvalidatePG()
	if w.RelevantPG().HasNode(b) {
		t.Fatal("hibernating process must not be in the relevant PG")
	}
}

func TestCloneAndFingerprintWithinSim(t *testing.T) {
	// Exercise Clone/Fingerprint via a CloneableProtocol defined here.
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Staying, &cloneableFixture{refs: ref.NewSet(b)})
	w.AddProcess(b, Staying, &cloneableFixture{refs: ref.NewSet()})
	w.Enqueue(b, NewMessage("m", RefInfo{Ref: a, Mode: Staying}))
	w.SealInitialState()
	c := w.Clone()
	if c.Fingerprint() != w.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	// Mutating the clone's channel changes its fingerprint only.
	c.Enqueue(a, NewMessage("extra"))
	if c.Fingerprint() == w.Fingerprint() {
		t.Fatal("fingerprint insensitive to channel contents")
	}
}

type cloneableFixture struct{ refs ref.Set }

func (c *cloneableFixture) Timeout(Context)          {}
func (c *cloneableFixture) Deliver(Context, Message) {}
func (c *cloneableFixture) Refs() []ref.Ref          { return c.refs.Sorted() }
func (c *cloneableFixture) CloneProtocol() Protocol {
	return &cloneableFixture{refs: c.refs.Clone()}
}

func TestCloneRejectsNonCloneable(t *testing.T) {
	space := ref.NewSpace()
	a := space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Staying, newFixture())
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of non-cloneable protocol must panic")
		}
	}()
	w.Clone()
}

// labelSender sends one message per label to its peer on every timeout.
type labelSender struct {
	peer   ref.Ref
	labels []string
}

func (l *labelSender) Timeout(ctx Context) {
	for _, lb := range l.labels {
		ctx.Send(l.peer, NewMessage(lb))
	}
}
func (l *labelSender) Deliver(Context, Message) {}
func (l *labelSender) Refs() []ref.Ref          { return nil }
func (l *labelSender) CloneProtocol() Protocol  { c := *l; return &c }

// TestSentByLabelTally: Stats renders the per-label send tally as a fresh
// map on every call, and a clone's tally diverges from its source's.
func TestSentByLabelTally(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Staying, &labelSender{peer: b, labels: []string{"x", "y", "x", "z", "x"}})
	w.AddProcess(b, Staying, &labelSender{})
	w.Execute(Action{Proc: a, IsTimeout: true})
	want := map[string]uint64{"x": 3, "y": 1, "z": 1}
	st := w.Stats()
	if !reflect.DeepEqual(st.SentByLabel, want) {
		t.Fatalf("SentByLabel = %v, want %v", st.SentByLabel, want)
	}
	st.SentByLabel["x"] = 99
	c := w.Clone()
	c.Execute(Action{Proc: a, IsTimeout: true})
	if got := w.Stats().SentByLabel; !reflect.DeepEqual(got, want) {
		t.Fatalf("source SentByLabel = %v after a caller's write and the clone's sends, want %v", got, want)
	}
	if got := c.Stats().SentByLabel; !reflect.DeepEqual(got, map[string]uint64{"x": 6, "y": 2, "z": 2}) {
		t.Fatalf("clone SentByLabel = %v", got)
	}
}
