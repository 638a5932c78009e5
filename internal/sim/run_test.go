package sim

import (
	"errors"
	"testing"

	"fdp/internal/ref"
)

// exitWhenToldProto exits on its k-th timeout; staying fixtures idle.
type exitAfterProto struct {
	fixtureProto
	after int
}

func (e *exitAfterProto) Timeout(ctx Context) {
	e.after--
	if e.after <= 0 {
		ctx.Exit()
	}
}

// buildRunWorld: one staying idle process and one leaving process that
// exits after k timeouts.
func buildRunWorld(k int) (*World, ref.Ref, ref.Ref) {
	space := ref.NewSpace()
	stay, leave := space.New(), space.New()
	w := NewWorld(nil)
	w.AddProcess(stay, Staying, newFixture())
	w.AddProcess(leave, Leaving, &exitAfterProto{after: k})
	w.SealInitialState()
	return w, stay, leave
}

func TestRunConvergesToLegitimacy(t *testing.T) {
	w, _, _ := buildRunWorld(3)
	res := Run(w, NewRoundScheduler(), RunOptions{Variant: FDP, MaxSteps: 1000})
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	if res.Stats.Exits != 1 {
		t.Fatal("exit not recorded")
	}
	if res.Rounds == 0 {
		t.Fatal("rounds not reported for the round scheduler")
	}
}

func TestRunRespectsMaxSteps(t *testing.T) {
	w, _, _ := buildRunWorld(1 << 30) // never exits
	res := Run(w, NewRandomScheduler(1, 64), RunOptions{Variant: FDP, MaxSteps: 500})
	if res.Converged {
		t.Fatal("must not converge")
	}
	if res.Steps != 500 {
		t.Fatalf("steps = %d, want exactly 500", res.Steps)
	}
}

func TestRunImmediateLegitimacy(t *testing.T) {
	// No leavers: state is legitimate before any step.
	space := ref.NewSpace()
	a := space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Staying, newFixture())
	w.SealInitialState()
	res := Run(w, NewRandomScheduler(1, 64), RunOptions{Variant: FDP, MaxSteps: 100})
	if !res.Converged || res.Steps != 0 {
		t.Fatalf("immediate legitimacy not detected: %+v", res)
	}
}

func TestRunSealsAutomatically(t *testing.T) {
	space := ref.NewSpace()
	a := space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Staying, newFixture())
	// No SealInitialState call: Run must do it.
	res := Run(w, NewRandomScheduler(1, 64), RunOptions{Variant: FDP, MaxSteps: 10})
	if !res.Converged {
		t.Fatal("auto-seal failed")
	}
	if w.InitialComponents() == nil {
		t.Fatal("initial components not sealed")
	}
}

func TestRunPotentialSeries(t *testing.T) {
	w, _, _ := buildRunWorld(5)
	countdown := 10
	res := Run(w, NewRoundScheduler(), RunOptions{
		Variant: FDP, MaxSteps: 1000, CheckEvery: 1,
		Potential: func(*World) int { countdown--; return countdown },
	})
	if len(res.PotentialSteps) == 0 || len(res.PotentialValues) != len(res.PotentialSteps) {
		t.Fatalf("potential series missing: %+v", res)
	}
}

// disconnectingProto deletes its only reference outright — a protocol
// outside the four primitives, used to check the safety detector.
type disconnectingProto struct {
	refs ref.Set
	drop bool
}

func (d *disconnectingProto) Timeout(ctx Context) {
	if d.drop {
		d.refs = ref.NewSet()
	}
}
func (d *disconnectingProto) Deliver(Context, Message) {}
func (d *disconnectingProto) Refs() []ref.Ref          { return d.refs.Sorted() }

func TestRunDetectsSafetyViolation(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	pa := &disconnectingProto{refs: ref.NewSet(b), drop: true}
	w.AddProcess(a, Staying, pa)
	// b is leaving (and never exits), so the initial state is not
	// legitimate and the run actually executes steps.
	w.AddProcess(b, Leaving, &disconnectingProto{refs: ref.NewSet()})
	w.SealInitialState()
	res := Run(w, NewRoundScheduler(), RunOptions{
		Variant: FDP, MaxSteps: 100, SafetyEveryStep: true,
	})
	if res.SafetyViolation == nil {
		t.Fatal("reference deletion must be flagged as a safety violation")
	}
	if !errors.Is(res.SafetyViolation, ErrSafety) {
		t.Fatal("violation must wrap ErrSafety")
	}
	if res.Converged {
		t.Fatal("violated runs must not report convergence")
	}
}

// dropRefsProto stores a fixed reference list until its first timeout, which
// discards every stored reference — the smallest action that can disconnect
// the process graph.
type dropRefsProto struct{ refs []ref.Ref }

func (d *dropRefsProto) Timeout(Context)          { d.refs = nil }
func (d *dropRefsProto) Deliver(Context, Message) {}
func (d *dropRefsProto) Refs() []ref.Ref          { return d.refs }

// giveUpScheduler executes a fixed plan and then reports no enabled action.
// The Scheduler contract only promises "ok is false iff no action is
// chosen"; a budgeted or adversarial scheduler may stop before true
// quiescence, so the run driver must not equate !ok with safety.
type giveUpScheduler struct {
	plan []Action
	pos  int
}

func (s *giveUpScheduler) Name() string { return "give-up" }

func (s *giveUpScheduler) Next(w *World) (Action, bool) {
	if s.pos >= len(s.plan) {
		return Action{}, false
	}
	a := s.plan[s.pos]
	s.pos++
	return a, true
}

// A run that stops with the relevant processes disconnected must report the
// Lemma 2 violation even when the stop comes from the scheduler's !ok path
// rather than a periodic check. Before the fix, that branch of Run evaluated
// legitimacy once more but skipped CheckSafety entirely, so the caller could
// not distinguish "did not converge" from "safety broken".
func TestRunQuiescentPathChecksSafety(t *testing.T) {
	space := ref.NewSpace()
	a, b, c := space.New(), space.New(), space.New()
	w := NewWorld(nil)
	w.AddProcess(a, Staying, &dropRefsProto{})
	w.AddProcess(b, Staying, &dropRefsProto{refs: []ref.Ref{a, c}})
	// c is leaving and never exits, so the initial state is not legitimate
	// and the run proceeds past the entry sample.
	w.AddProcess(c, Leaving, &dropRefsProto{})
	w.SealInitialState() // one component: b -> a, b -> c

	// b's timeout drops both references, isolating all three awake
	// processes; the scheduler then gives up before the periodic check
	// (checkEvery defaults to 3 = the process count) can fire.
	sched := &giveUpScheduler{plan: []Action{{Proc: b, IsTimeout: true}}}
	res := Run(w, sched, RunOptions{Variant: FDP, CheckSafety: true})

	if res.Converged {
		t.Fatal("disconnected state must not count as converged")
	}
	if res.SafetyViolation == nil {
		t.Fatal("quiescent stop in a disconnected state must report the safety violation")
	}
	if !errors.Is(res.SafetyViolation, ErrSafety) {
		t.Fatalf("violation must wrap ErrSafety, got %v", res.SafetyViolation)
	}
}

// The quiescent path must not invent violations or eat convergence: a world
// that becomes legitimate on the very step after which the scheduler stops
// still reports success.
func TestRunQuiescentPathStillConverges(t *testing.T) {
	w, _, _ := buildRunWorld(1) // leaver exits on its first timeout
	_, leave := func() (ref.Ref, ref.Ref) {
		refs := w.Refs()
		return refs[0], refs[1]
	}()
	sched := &giveUpScheduler{plan: []Action{{Proc: leave, IsTimeout: true}}}
	res := Run(w, sched, RunOptions{Variant: FDP, CheckSafety: true})
	if !res.Converged || res.SafetyViolation != nil {
		t.Fatalf("legitimate quiescent state misreported: %+v", res)
	}
}

func TestPickEnabledMatchesEnumeration(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa := newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Staying, newFixture())
	w.Enqueue(a, NewMessage("m1"))
	w.Enqueue(b, NewMessage("m2"))
	w.Enqueue(b, NewMessage("m3"))
	actions := w.EnabledActions()
	if w.EnabledCount() != len(actions) {
		t.Fatalf("EnabledCount=%d, enumeration=%d", w.EnabledCount(), len(actions))
	}
	for k, want := range actions {
		got := w.PickEnabled(k)
		if got.Proc != want.Proc || got.IsTimeout != want.IsTimeout || got.MsgSeq != want.MsgSeq {
			t.Fatalf("PickEnabled(%d) = %+v, want %+v", k, got, want)
		}
	}
}

func TestValidateActionStaleness(t *testing.T) {
	space := ref.NewSpace()
	a := space.New()
	w := NewWorld(nil)
	fa := newFixture()
	w.AddProcess(a, Staying, fa)
	w.Enqueue(a, NewMessage("x"))
	act := w.EnabledActions()[1] // the delivery
	if !w.ValidateAction(&act) {
		t.Fatal("live action must validate")
	}
	w.Execute(act) // consume it
	if w.ValidateAction(&act) {
		t.Fatal("consumed message must not validate")
	}
	timeout := Action{Proc: a, IsTimeout: true}
	if !w.ValidateAction(&timeout) {
		t.Fatal("timeout of awake process must validate")
	}
	fa.onTimeout = func(ctx Context, f *fixtureProto) { ctx.Exit() }
	w.Execute(timeout)
	if w.ValidateAction(&timeout) {
		t.Fatal("gone process's timeout must not validate")
	}
}

// TestValidateActionSearchesDown: a delivery is re-resolved by searching
// down from the index its message was seen at. Through deliveries from the
// head, the middle and the tail, appends by Enqueue, Inject and Send, and an
// exit, every action ever enumerated — its index as first seen, however stale
// — must resolve exactly as a scan of the whole channel says.
func TestValidateActionSearchesDown(t *testing.T) {
	type op struct {
		deliver uint64 // deliver the message with this seq
		enqueue int    // append this many by Enqueue, then one by Inject and one by Send
		exit    bool
	}
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"head deliveries", []op{{deliver: 1}, {deliver: 2}, {deliver: 3}}},
		{"middle then tail", []op{{deliver: 4}, {deliver: 6}, {deliver: 2}}},
		{"appends between deliveries", []op{{enqueue: 2}, {deliver: 3}, {enqueue: 1}, {deliver: 8}, {deliver: 1}, {enqueue: 3}}},
		{"everything delivered", []op{{deliver: 6}, {deliver: 5}, {deliver: 4}, {deliver: 3}, {deliver: 2}, {deliver: 1}, {enqueue: 1}}},
		{"exit", []op{{deliver: 3}, {enqueue: 2}, {exit: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, a, _, fa, fb := twoProcWorld(t)
			fb.onTimeout = func(ctx Context, _ *fixtureProto) { ctx.Send(a, NewMessage("sent")) }
			for i := 0; i < 6; i++ {
				w.Enqueue(a, NewMessage("m"))
			}
			// scan is the reference: where the message with seq is now.
			scan := func(seq uint64) (int, bool) {
				for i, m := range w.ChannelSnapshot(a) {
					if m.Seq() == seq {
						return i, true
					}
				}
				return 0, false
			}
			var seen []Action // every delivery of a ever enumerated, index as first seen
			known := map[uint64]bool{}
			enumerate := func() {
				for _, act := range w.EnabledActions() {
					if act.Proc == a && !act.IsTimeout && !known[act.MsgSeq] {
						known[act.MsgSeq] = true
						seen = append(seen, act)
					}
				}
			}
			enumerate()
			for step, o := range tc.ops {
				switch {
				case o.exit:
					fa.onTimeout = func(ctx Context, _ *fixtureProto) { ctx.Exit() }
					w.Execute(Action{Proc: a, IsTimeout: true})
				case o.enqueue > 0:
					for i := 0; i < o.enqueue; i++ {
						w.Enqueue(a, NewMessage("m"))
					}
					w.Inject(a, NewMessage("injected"))
					w.Execute(Action{Proc: w.Refs()[1], IsTimeout: true})
				default:
					i, ok := scan(o.deliver)
					if !ok {
						t.Fatalf("op %d: seq %d is not queued", step, o.deliver)
					}
					w.Execute(Action{Proc: a, MsgIndex: i, MsgSeq: o.deliver})
				}
				for _, s := range seen {
					got := s
					ok := w.ValidateAction(&got)
					wi, wok := scan(s.MsgSeq)
					if w.LifeOf(a) == Gone {
						wok = false
					}
					if ok != wok || ok && got.MsgIndex != wi {
						t.Fatalf("op %d: seq %d seen at %d resolves to (%d, %v), the channel says (%d, %v)",
							step, s.MsgSeq, s.MsgIndex, got.MsgIndex, ok, wi, wok)
					}
				}
				enumerate()
			}
		})
	}
}
