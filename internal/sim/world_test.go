package sim

import (
	"slices"
	"testing"

	"fdp/internal/graph"
	"fdp/internal/ref"
)

// fixtureProto is a minimal protocol for engine tests: it stores a set of
// references, can be scripted to send/exit/sleep on timeout or delivery.
type fixtureProto struct {
	refs      ref.Set
	onTimeout func(ctx Context, f *fixtureProto)
	onDeliver func(ctx Context, f *fixtureProto, m Message)
	delivered []Message
	timeouts  int
}

func newFixture() *fixtureProto { return &fixtureProto{refs: ref.NewSet()} }

func (f *fixtureProto) Timeout(ctx Context) {
	f.timeouts++
	if f.onTimeout != nil {
		f.onTimeout(ctx, f)
	}
}

func (f *fixtureProto) Deliver(ctx Context, m Message) {
	f.delivered = append(f.delivered, m)
	if f.onDeliver != nil {
		f.onDeliver(ctx, f, m)
	}
}

func (f *fixtureProto) Refs() []ref.Ref { return f.refs.Sorted() }

func twoProcWorld(t *testing.T) (*World, ref.Ref, ref.Ref, *fixtureProto, *fixtureProto) {
	t.Helper()
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa, fb := newFixture(), newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Staying, fb)
	return w, a, b, fa, fb
}

func TestAddProcessDuplicatePanics(t *testing.T) {
	space := ref.NewSpace()
	a := space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Staying, newFixture())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddProcess must panic")
		}
	}()
	w.AddProcess(a, Staying, newFixture())
}

func TestTimeoutOnlyWhenAwake(t *testing.T) {
	w, a, _, fa, _ := twoProcWorld(t)
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Sleep() }
	acts := w.EnabledActions()
	// Two awake processes, no messages: exactly two timeout actions.
	if len(acts) != 2 {
		t.Fatalf("enabled = %d, want 2", len(acts))
	}
	w.Execute(Action{Proc: a, IsTimeout: true})
	if w.LifeOf(a) != Asleep {
		t.Fatal("sleep not applied")
	}
	for _, act := range w.EnabledActions() {
		if act.Proc == a && act.IsTimeout {
			t.Fatal("asleep process must have no enabled timeout")
		}
	}
}

func TestSleepIsDeferredToEndOfAction(t *testing.T) {
	w, a, b, fa, _ := twoProcWorld(t)
	var lifeDuring Life
	fa.onTimeout = func(ctx Context, f *fixtureProto) {
		ctx.Sleep()
		lifeDuring = w.LifeOf(a)        // still awake inside the atomic action
		ctx.Send(b, NewMessage("ping")) // sends still work after Sleep()
	}
	w.Execute(Action{Proc: a, IsTimeout: true})
	if lifeDuring != Awake {
		t.Fatal("sleep must take effect only after the atomic action")
	}
	if w.LifeOf(a) != Asleep || w.ChannelLen(b) != 1 {
		t.Fatal("post-action state wrong")
	}
}

func TestMessageWakesAsleepProcess(t *testing.T) {
	w, a, _, fa, _ := twoProcWorld(t)
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Sleep() }
	w.Execute(Action{Proc: a, IsTimeout: true})
	w.Enqueue(a, NewMessage("wakeup"))
	// The delivery must be enabled for the asleep process.
	var act Action
	found := false
	for _, c := range w.EnabledActions() {
		if c.Proc == a && !c.IsTimeout {
			act, found = c, true
		}
	}
	if !found {
		t.Fatal("delivery to asleep process not enabled")
	}
	w.Execute(act)
	if w.LifeOf(a) != Awake {
		t.Fatal("process must wake on message processing")
	}
	if len(fa.delivered) != 1 || fa.delivered[0].Label != "wakeup" {
		t.Fatal("message not delivered")
	}
	if w.Stats().Wakes != 1 {
		t.Fatal("wake not counted")
	}
}

func TestExitDropsChannelAndBlocksSends(t *testing.T) {
	w, a, b, fa, _ := twoProcWorld(t)
	w.Enqueue(a, NewMessage("stale"))
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Exit() }
	w.Execute(Action{Proc: a, IsTimeout: true})
	if w.LifeOf(a) != Gone {
		t.Fatal("exit not applied")
	}
	if w.ChannelLen(a) != 0 {
		t.Fatal("gone process's channel must be cleared")
	}
	if w.Stats().TotalInQueue != 0 {
		t.Fatalf("in-queue accounting wrong: %d", w.Stats().TotalInQueue)
	}
	// Sends to gone processes vanish.
	fb := w.ProtocolOf(b).(*fixtureProto)
	fb.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(a, NewMessage("dead")) }
	w.Execute(Action{Proc: b, IsTimeout: true})
	if w.ChannelLen(a) != 0 {
		t.Fatal("message reached gone process")
	}
	if w.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", w.Stats().Dropped)
	}
	// Gone processes never act.
	for _, act := range w.EnabledActions() {
		if act.Proc == a {
			t.Fatal("gone process has enabled actions")
		}
	}
}

func TestSendToNilIsNoop(t *testing.T) {
	w, a, _, fa, _ := twoProcWorld(t)
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(ref.Nil, NewMessage("x")) }
	w.Execute(Action{Proc: a, IsTimeout: true})
	if w.Stats().Sent != 0 {
		t.Fatal("send to ⊥ must be a no-op")
	}
}

func TestPGExplicitAndImplicitEdges(t *testing.T) {
	w, a, b, fa, _ := twoProcWorld(t)
	fa.refs.Add(b)
	pg := w.PG()
	if !pg.HasEdgeKind(a, b, graph.Explicit) {
		t.Fatal("stored reference must be an explicit edge")
	}
	w.Enqueue(b, NewMessage("carry", RefInfo{Ref: a, Mode: Staying}))
	pg = w.PG()
	if !pg.HasEdgeKind(b, a, graph.Implicit) {
		t.Fatal("in-flight reference must be an implicit edge from the channel owner")
	}
}

func TestPGExcludesGone(t *testing.T) {
	w, a, b, fa, fb := twoProcWorld(t)
	fa.refs.Add(b)
	fb.refs.Add(a)
	fb.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Exit() }
	w.Execute(Action{Proc: b, IsTimeout: true})
	pg := w.PG()
	if pg.HasNode(b) {
		t.Fatal("gone process must be removed from PG")
	}
	if pg.NumEdges() != 0 {
		t.Fatal("edges incident to gone processes must be removed")
	}
	_ = a
}

func TestOracleSaysWithoutOracle(t *testing.T) {
	w, a, _, fa, _ := twoProcWorld(t)
	got := true
	fa.onTimeout = func(ctx Context, f *fixtureProto) { got = ctx.OracleSays() }
	w.Execute(Action{Proc: a, IsTimeout: true})
	if got {
		t.Fatal("nil oracle must answer false")
	}
}

type constOracle bool

func (o constOracle) Name() string                  { return "const" }
func (o constOracle) Evaluate(*World, ref.Ref) bool { return bool(o) }

func TestOracleSaysWithOracle(t *testing.T) {
	space := ref.NewSpace()
	a := space.New()
	w := NewWorld(constOracle(true))
	fa := newFixture()
	got := false
	fa.onTimeout = func(ctx Context, f *fixtureProto) { got = ctx.OracleSays() }
	w.AddProcess(a, Leaving, fa)
	w.Execute(Action{Proc: a, IsTimeout: true})
	if !got {
		t.Fatal("oracle answer not forwarded")
	}
}

func TestHibernationDetection(t *testing.T) {
	space := ref.NewSpace()
	a, b, c := space.New(), space.New(), space.New()
	w := NewWorld(nil)
	fa, fb, fc := newFixture(), newFixture(), newFixture()
	w.AddProcess(a, Leaving, fa)
	w.AddProcess(b, Leaving, fb)
	w.AddProcess(c, Staying, fc)
	// a -> b: b cannot hibernate while a is awake, even if b sleeps.
	fa.refs.Add(b)
	sleepNow := func(ctx Context, f *fixtureProto) { ctx.Sleep() }
	fb.onTimeout = sleepNow
	w.Execute(Action{Proc: b, IsTimeout: true})
	if w.Hibernating().Has(b) {
		t.Fatal("b has an awake predecessor; not hibernating")
	}
	// Put a to sleep too; b still has predecessor a, but a is asleep with
	// empty channel, and c has no path to either => both hibernate.
	fa.onTimeout = sleepNow
	w.Execute(Action{Proc: a, IsTimeout: true})
	hib := w.Hibernating()
	if !hib.Has(a) || !hib.Has(b) {
		t.Fatalf("a and b should hibernate, got %v", hib.Sorted())
	}
	if hib.Has(c) {
		t.Fatal("awake process can never hibernate")
	}
	// A message in a's channel breaks hibernation of both a and b.
	w.Enqueue(a, NewMessage("poke"))
	hib = w.Hibernating()
	if hib.Has(a) || hib.Has(b) {
		t.Fatal("pending message must break hibernation downstream")
	}
}

// silentBouncer is a fixture whose undeliverable handler does nothing.
type silentBouncer struct{ fixtureProto }

func (*silentBouncer) Undeliverable(Context, ref.Ref, Message) {}

// TestBounceWakeEndsHibernation: a bounce wakes an asleep sender even when
// its handler changes neither a reference nor a channel, and the hibernating
// set asked before the bounce must not be answered again after it.
func TestBounceWakeEndsHibernation(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Leaving, &silentBouncer{*newFixture()})
	w.AddProcess(b, Leaving, newFixture())
	w.ForceAsleep(a)
	w.ForceAsleep(b)
	if hib := w.Hibernating(); !hib.Has(a) || !hib.Has(b) {
		t.Fatalf("two asleep processes with no edges: hibernating %v", hib.Sorted())
	}
	w.Bounce(a, b, NewMessage("m"))
	if w.LifeOf(a) != Awake {
		t.Fatalf("bounced sender is %v, want awake", w.LifeOf(a))
	}
	if hib := w.Hibernating(); hib.Has(a) || !hib.Has(b) {
		t.Fatalf("after the bounce woke %v: hibernating %v, want only %v", a, hib.Sorted(), b)
	}
}

func TestRelevantExcludesGoneAndHibernating(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa, fb := newFixture(), newFixture()
	w.AddProcess(a, Leaving, fa)
	w.AddProcess(b, Staying, fb)
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Sleep() }
	w.Execute(Action{Proc: a, IsTimeout: true})
	rel := w.Relevant()
	if rel.Has(a) || !rel.Has(b) {
		t.Fatalf("relevant set wrong: %v", rel.Sorted())
	}
}

func TestLegitimacyFDP(t *testing.T) {
	space := ref.NewSpace()
	a, b, c := space.New(), space.New(), space.New()
	w := NewWorld(nil)
	fa, fb, fc := newFixture(), newFixture(), newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Leaving, fb)
	w.AddProcess(c, Staying, fc)
	// a - b - c: b is a cut vertex between the staying processes.
	fa.refs.Add(b)
	fb.refs.Add(c)
	w.SealInitialState()
	if w.Legitimate(FDP) {
		t.Fatal("leaving process still awake: not legitimate")
	}
	// b exits: staying processes a and c become disconnected -> still not
	// legitimate (condition iii violated).
	fb.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Exit() }
	w.Execute(Action{Proc: b, IsTimeout: true})
	if w.Legitimate(FDP) {
		t.Fatal("disconnected staying processes: must not be legitimate")
	}
	if w.RelevantComponentsIntact() {
		t.Fatal("safety invariant must detect the disconnection")
	}
	// Reconnect a -> c (outside an atomic action): now legitimate.
	fa.refs.Add(c)
	w.InvalidatePG()
	if !w.Legitimate(FDP) {
		t.Fatal("state should be legitimate now")
	}
}

func TestLegitimacyFSP(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa, fb := newFixture(), newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Leaving, fb)
	fa.refs.Add(b)
	w.SealInitialState()
	fb.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Sleep() }
	w.Execute(Action{Proc: b, IsTimeout: true})
	// a still stores a reference to b and is awake => b not hibernating.
	if w.Legitimate(FSP) {
		t.Fatal("b is reachable from awake a: not hibernating")
	}
	fa.refs.Remove(b) // outside an atomic action
	w.InvalidatePG()
	if !w.Legitimate(FSP) {
		t.Fatal("b asleep, unreachable, channel empty: legitimate FSP state")
	}
	if w.Legitimate(FDP) {
		t.Fatal("FSP-legitimate state must not be FDP-legitimate (b not gone)")
	}
}

func TestCountsAndSnapshots(t *testing.T) {
	w, a, b, fa, _ := twoProcWorld(t)
	fa.onTimeout = func(ctx Context, f *fixtureProto) {
		ctx.Send(b, NewMessage("m1"))
		ctx.Send(b, NewMessage("m2"))
	}
	w.Execute(Action{Proc: a, IsTimeout: true})
	if w.ChannelLen(b) != 2 {
		t.Fatal("channel length wrong")
	}
	snap := w.ChannelSnapshot(b)
	if len(snap) != 2 || snap[0].Label != "m1" || snap[1].Label != "m2" {
		t.Fatal("snapshot wrong")
	}
	st := w.Stats()
	if st.Sent != 2 || st.SentByLabel["m1"] != 1 || st.MaxChannel != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if w.AwakeCount() != 2 || w.GoneCount() != 0 {
		t.Fatal("process counts wrong")
	}
	_ = a
}

func TestEventHook(t *testing.T) {
	w, a, b, fa, _ := twoProcWorld(t)
	var events []Event
	w.AddEventHook(func(e Event) { events = append(events, e) })
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Send(b, NewMessage("hello")) }
	w.Execute(Action{Proc: a, IsTimeout: true})
	w.Execute(Action{Proc: b, MsgIndex: 0})
	kinds := map[EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[EvTimeout] != 1 || kinds[EvSend] != 1 || kinds[EvDeliver] != 1 {
		t.Fatalf("event kinds wrong: %v", kinds)
	}
}

func TestQuiescent(t *testing.T) {
	w, a, b, fa, fb := twoProcWorld(t)
	if w.Quiescent() {
		t.Fatal("awake processes: not quiescent")
	}
	sleepNow := func(ctx Context, f *fixtureProto) { ctx.Sleep() }
	fa.onTimeout = sleepNow
	fb.onTimeout = sleepNow
	w.Execute(Action{Proc: a, IsTimeout: true})
	w.Execute(Action{Proc: b, IsTimeout: true})
	if !w.Quiescent() {
		t.Fatal("all asleep, empty channels: quiescent")
	}
	w.Enqueue(a, NewMessage("x"))
	if w.Quiescent() {
		t.Fatal("pending message: not quiescent")
	}
}

// TestForeignRefsAreNotProcesses drives references no Space of this world
// minted — ref.FromWire turns whatever a peer put on the wire into one,
// negative and huge identities included — through every entry point that
// indexes the process slice. Each must answer "no such process" without
// panicking and without growing the slice.
func TestForeignRefsAreNotProcesses(t *testing.T) {
	for _, id := range []uint32{0, 1 << 31, ^uint32(0), 1 << 30, 3} {
		r := ref.FromWire(id)
		w, a, _, fa, _ := twoProcWorld(t)
		fa.refs.Add(r) // a stored foreign reference reaches the PG diff
		fa.onTimeout = func(ctx Context, f *fixtureProto) {
			ctx.Send(r, NewMessage("m", RefInfo{Ref: r}))
		}
		var kinds []EventKind
		w.AddEventHook(func(e Event) { kinds = append(kinds, e.Kind) })
		w.SealInitialState() // seed the ledger, so every path below maintains it

		if w.Has(r) {
			t.Fatalf("%v: Has", r)
		}
		if w.Inject(r, NewMessage("m")) {
			t.Fatalf("%v: Inject accepted a message", r)
		}
		w.Enqueue(r, NewMessage("m"))
		w.Bounce(r, a, NewMessage("m"))
		if w.ValidateAction(&Action{Proc: r, IsTimeout: true}) {
			t.Fatalf("%v: ValidateAction", r)
		}
		if got := w.Stats().Dropped; got != 2 {
			t.Fatalf("%v: Dropped = %d after Inject and Enqueue, want 2", r, got)
		}

		// Send with no router, with a refusing one, with an accepting one.
		routed := 0
		for i, accept := range []bool{false, false, true} {
			if i > 0 {
				w.SetRouter(func(to ref.Ref, _ Message) bool {
					if to != r {
						t.Fatalf("router offered %v, want %v", to, r)
					}
					routed++
					return accept
				})
			}
			kinds = kinds[:0]
			w.Execute(Action{Proc: a, IsTimeout: true})
			want := []EventKind{EvTimeout, EvDrop}
			switch {
			case r.IsNil():
				want = want[:1] // a send to ⊥ is no send at all
			case accept:
				want[1] = EvSend
			}
			if !slices.Equal(kinds, want) {
				t.Fatalf("%v, router %d: events %v, want %v", r, i, kinds, want)
			}
		}
		if want := 2; !r.IsNil() && routed != want {
			t.Fatalf("%v: router consulted %d times, want %d", r, routed, want)
		}
		if len(w.procs) != 2 || w.PG().HasNode(r) {
			t.Fatalf("%v: world grew to %d slots, PG %v", r, len(w.procs), w.PG())
		}
		checkEveryDegree(t, w, r.String())
		checkVerdicts(t, w, r.String())
	}
}

func TestAddProcessForeignRefPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddProcess with a negative identity must panic")
		}
	}()
	NewWorld(nil).AddProcess(ref.FromWire(^uint32(0)), Staying, newFixture())
}
