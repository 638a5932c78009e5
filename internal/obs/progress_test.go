package obs

import (
	"slices"
	"strings"
	"testing"
	"time"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

func leavers3() []ref.Ref {
	return []ref.Ref{ref.ByIndex(0), ref.ByIndex(1), ref.ByIndex(2)}
}

func ev(kind sim.EventKind, proc ref.Ref) sim.Event {
	return sim.Event{Kind: kind, Proc: proc}
}

// TestProgressClassification walks one Progress through every stall kind:
// the classification switch of Check is the contract DESIGN.md §16 states,
// so each branch gets a window constructed to hit exactly it.
func TestProgressClassification(t *testing.T) {
	ls := leavers3()
	p := NewProgress(nil, "", ls)

	// Window 1: sends and delivers flowed, the oracle denied throughout,
	// nobody settled — livelock.
	p.NoteEvent(ev(sim.EvSend, ls[0]))
	p.NoteEvent(ev(sim.EvDeliver, ls[1]))
	p.NoteOracle(ls[0], false)
	p.NoteOracle(ls[0], false)
	v, stalled := p.Check(100, 5)
	if !stalled || v.Kind != StallLivelock {
		t.Fatalf("flow+denials window classified %v, want livelock", v.Kind)
	}
	if v.WindowDenials != 2 || v.MaxDenialStreak != 2 {
		t.Fatalf("denial accounting off: %+v", v)
	}
	if v.WindowHops != 1 {
		t.Fatalf("leaver send did not count as a hop: %+v", v)
	}

	// Window 2: timeouts fire but no deliveries while messages are queued —
	// starvation (something is not draining).
	p.NoteEvent(ev(sim.EvTimeout, ls[0]))
	v, stalled = p.Check(200, 7)
	if !stalled || v.Kind != StallStarvation {
		t.Fatalf("queued+undelivered window classified %v, want starvation", v.Kind)
	}

	// Window 3: nothing at all happened and the queue is empty — quiescent.
	v, stalled = p.Check(300, 0)
	if !stalled || v.Kind != StallQuiescent {
		t.Fatalf("dead window classified %v, want quiescent", v.Kind)
	}
	if v.OldestIdleWindows < 2 {
		t.Fatalf("idle leaver not aging across windows: %+v", v)
	}

	// Window 4: a grant is progress even without a settle yet.
	p.NoteOracle(ls[0], true)
	v, stalled = p.Check(400, 3)
	if stalled || v.Kind != StallNone {
		t.Fatalf("granted window classified %v, want none", v.Kind)
	}
	if v.MaxDenialStreak != 0 {
		t.Fatalf("grant did not reset the denial streak: %+v", v)
	}

	// Window 5: settles drain the leaver set; once it is empty no window
	// can stall regardless of activity.
	for _, l := range ls {
		p.NoteEvent(ev(sim.EvExit, l))
	}
	if p.Remaining() != 0 {
		t.Fatalf("remaining = %d after all exits", p.Remaining())
	}
	if v, stalled = p.Check(500, 0); stalled || v.LeaversRemaining != 0 {
		t.Fatalf("empty leaver set still stalls: %+v", v)
	}
}

// TestProgressSleepWake pins the FSP settle semantics: hibernation settles a
// leaver, a wake-up unsettles it again (its departure is back in flight).
func TestProgressSleepWake(t *testing.T) {
	ls := leavers3()
	reg := NewRegistry()
	p := NewProgress(reg, `engine="test"`, ls)

	p.NoteEvent(ev(sim.EvSleep, ls[0]))
	if p.Remaining() != 2 {
		t.Fatalf("remaining = %d after sleep, want 2", p.Remaining())
	}
	// Double settle must not double-count.
	p.NoteEvent(ev(sim.EvSleep, ls[0]))
	if g := reg.Gauge(MetricProgressLeavers+`{engine="test"}`, "").Value(); g != 2 {
		t.Fatalf("remaining gauge = %d, want 2", g)
	}
	p.NoteEvent(ev(sim.EvWake, ls[0]))
	if p.Remaining() != 3 {
		t.Fatalf("remaining = %d after wake, want 3", p.Remaining())
	}
	// A settled leaver's sends are not hops; an unsettled one's are.
	p.NoteEvent(ev(sim.EvSleep, ls[1]))
	p.NoteEvent(ev(sim.EvSend, ls[1]))
	p.NoteEvent(ev(sim.EvSend, ls[0]))
	if v, _ := p.Check(1, 0); v.WindowHops != 1 {
		t.Fatalf("hops = %d, want 1 (settled leaver's send counted?)", v.WindowHops)
	}
}

// TestProgressNonLeaver: events and verdicts for processes outside the
// leaver set count toward window activity but never toward slots.
func TestProgressNonLeaver(t *testing.T) {
	p := NewProgress(nil, "", leavers3())
	stayer := ref.ByIndex(9)
	p.NoteEvent(ev(sim.EvSend, stayer))
	p.NoteEvent(ev(sim.EvExit, stayer)) // not a leaver: no settle
	p.NoteOracle(stayer, false)
	v, stalled := p.Check(1, 1)
	if v.WindowSends != 1 || v.WindowHops != 0 {
		t.Fatalf("stayer send misclassified as hop: %+v", v)
	}
	if v.LeaversRemaining != 3 || !stalled {
		t.Fatalf("stayer exit settled a leaver slot: %+v", v)
	}
	if v.WindowDenials != 1 || v.MaxDenialStreak != 0 {
		t.Fatalf("stayer denial grew a leaver streak: %+v", v)
	}
}

// TestProgressExposition: the registry-backed form emits every liveness
// series with the instance labels merged in, and a stall verdict moves the
// state gauge and the per-kind verdict counter.
func TestProgressExposition(t *testing.T) {
	ls := leavers3()
	reg := NewRegistry()
	p := NewProgress(reg, `node="2"`, ls)

	p.NoteEvent(ev(sim.EvSend, ls[0]))
	p.NoteOracle(ls[0], false)
	p.NoteOracle(ls[1], true)
	if _, stalled := p.Check(10, 0); stalled {
		t.Fatal("granted window stalled")
	}
	p.NoteEvent(ev(sim.EvSend, ls[0]))
	p.NoteEvent(ev(sim.EvDeliver, ls[1]))
	p.NoteOracle(ls[0], false)
	if v, stalled := p.Check(20, 1); !stalled || v.Kind != StallLivelock {
		t.Fatalf("want livelock, got %+v", v)
	}

	out := reg.String()
	for _, want := range []string{
		`fdp_progress_leavers_remaining{node="2"} 3`,
		`fdp_progress_grants_total{node="2"} 1`,
		`fdp_progress_denials_total{node="2"} 2`,
		`fdp_progress_forward_hops_total{node="2"} 2`,
		`fdp_progress_denial_streak_max{node="2"} 2`,
		`fdp_stall_state{node="2"} 1`,
		`fdp_stall_verdicts_total{node="2",kind="livelock"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestProgressNoteAllocs pins the hot path at zero allocations — Progress
// hooks ride inside every engine step, so a single allocation per event
// would dominate a 100k-process churn.
func TestProgressNoteAllocs(t *testing.T) {
	ls := leavers3()
	reg := NewRegistry()
	p := NewProgress(reg, `engine="alloc"`, ls)
	send := ev(sim.EvSend, ls[0])
	deliver := ev(sim.EvDeliver, ls[1])
	deliver.Lane = 200 // any lane: the cells are allocated with the tracker
	if n := testing.AllocsPerRun(1000, func() {
		p.NoteEvent(send)
		p.NoteEvent(deliver)
	}); n != 0 {
		t.Fatalf("NoteEvent allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		p.NoteOracle(ls[0], false)
		p.NoteOracle(ls[1], true)
	}); n != 0 {
		t.Fatalf("NoteOracle allocates %v/op", n)
	}
}

// TestProgressLanesAgreeWithOneLane: the lane is where an event is counted,
// never what is counted. One event stream — every kind, leavers and stayers,
// verdicts and checks interleaved — fed once with every event on lane 0 and
// once dealt over many lanes yields the same verdict at every Check and the
// same exposition at the end.
func TestProgressLanesAgreeWithOneLane(t *testing.T) {
	ls := leavers3()
	stayer := ref.ByIndex(7)
	procs := append(leavers3(), stayer)
	kinds := []sim.EventKind{sim.EvTimeout, sim.EvSend, sim.EvDeliver, sim.EvSend, sim.EvDrop,
		sim.EvSleep, sim.EvSend, sim.EvWake, sim.EvDeliver, sim.EvExit}
	run := func(laneOf func(i int) uint8) ([]StallVerdict, string) {
		reg := NewRegistry()
		p := NewProgress(reg, `engine="lanes"`, ls)
		var verdicts []StallVerdict
		for i := 0; i < 400; i++ {
			// Exits only late, so most windows have unsettled leavers hopping.
			k := kinds[i%len(kinds)]
			if k == sim.EvExit && i < 300 {
				k = sim.EvSend
			}
			e := ev(k, procs[(i/3)%len(procs)])
			e.Lane = laneOf(i)
			p.NoteEvent(e)
			if i%7 == 0 {
				p.NoteOracle(procs[i%len(procs)], i%21 == 0)
			}
			if i%50 == 49 {
				v, _ := p.Check(uint64(i), i%3)
				verdicts = append(verdicts, v)
			}
		}
		return verdicts, reg.String()
	}
	oneV, oneText := run(func(int) uint8 { return 0 })
	manyV, manyText := run(func(i int) uint8 { return uint8(i * 37) })
	if len(oneV) != 8 || oneV[0].WindowHops == 0 || oneV[0].WindowTimeouts == 0 {
		t.Fatalf("the stream exercises too little: %+v", oneV)
	}
	for i := range oneV {
		if oneV[i] != manyV[i] {
			t.Fatalf("check %d: one lane judged\n%+v\nmany lanes\n%+v", i, oneV[i], manyV[i])
		}
	}
	if oneText != manyText {
		t.Fatalf("exposition differs.\none lane:\n%s\nmany lanes:\n%s", oneText, manyText)
	}
	if !strings.Contains(oneText, "# TYPE "+MetricProgressHops+" counter") {
		t.Fatalf("the collected hop series is not exposed as a counter:\n%s", oneText)
	}
}

// TestProgressUnknownAndHostileReferences is the tracker's side of the
// runtime's TestUnknownAndHostileReferences: leaver slots are found by
// indexing a slice with ref.Index, and a node's tracker is handed whatever
// identity a peer put on the wire. A reference that names no leaver — ⊥, a
// negative or far-out-of-range identity, a stayer, a process just past the
// last leaver — has no slot: its events and verdicts are counted as activity,
// settle nobody, grow no streak, and index nothing.
func TestProgressUnknownAndHostileReferences(t *testing.T) {
	ls := leavers3()
	for _, c := range []struct {
		name string
		r    ref.Ref
	}{
		{"nil", ref.Nil},
		{"negative", ref.FromWire(^uint32(4))},
		{"past-the-end", ref.FromWire(1 << 30)},
		{"just-past-the-last-leaver", ref.ByIndex(3)},
		{"stayer-between-leavers", ref.ByIndex(1)},
	} {
		// Leavers p1 and p3 only, so index 1 is a hole inside the slice.
		p := NewProgress(nil, "", []ref.Ref{ls[0], ref.Nil, ls[2], ls[0]})
		if p.Remaining() != 2 {
			t.Fatalf("%s: %d leavers tracked, want 2 (⊥ and the duplicate are none)", c.name, p.Remaining())
		}
		for _, k := range []sim.EventKind{sim.EvSend, sim.EvExit, sim.EvSleep, sim.EvWake, sim.EvTimeout, sim.EvDeliver} {
			p.NoteEvent(ev(k, c.r))
		}
		p.NoteOracle(c.r, false)
		p.NoteOracle(c.r, true)
		v, _ := p.Check(1, 0)
		want := StallVerdict{LeaversRemaining: 2, Step: 1, OldestIdleWindows: 1,
			WindowTimeouts: 1, WindowDelivers: 1, WindowSends: 1, WindowGrants: 1, WindowDenials: 1}
		if v != want {
			t.Errorf("%s: %v judged\n%+v\nwant\n%+v", c.name, c.r, v, want)
		}
	}
}

// TestStepWatchdogCadence: ticks between window boundaries must not invoke
// the pending callback (it may allocate — Stats() copies a map).
func TestStepWatchdogCadence(t *testing.T) {
	wd := NewWatch(sim.NewWorld(nil), WatchConfig{Leavers: leavers3(), Every: 100})
	calls := 0
	pending := func() int { calls++; return 0 }
	for s := uint64(1); s <= 250; s++ {
		wd.Tick(s, s, pending)
	}
	if calls != 2 {
		t.Fatalf("pending queried %d times over 250 steps at window 100, want 2", calls)
	}
}

// TestWatchdogCadence: the node's watch runs on nanoseconds of its clock
// since the first Step. That first Step only starts the window; after that
// one Check runs per elapsed window, however many ticks fall inside it.
func TestWatchdogCadence(t *testing.T) {
	wd := NewWatch(sim.NewWorld(nil), WatchConfig{Leavers: leavers3(), Every: uint64(10 * time.Millisecond)})
	calls := 0
	pending := func() int { calls++; return 0 }
	var fired []time.Duration
	for d := time.Duration(0); d <= 35*time.Millisecond; d += time.Millisecond {
		if v, _ := wd.Tick(uint64(d), uint64(d/time.Millisecond), pending); v.Kind != StallNone {
			fired = append(fired, d)
		}
	}
	if want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}; !slices.Equal(fired, want) {
		t.Fatalf("stall verdicts at %v, want %v (every 10ms window with leavers and no settles)", fired, want)
	}
	if calls != 3 {
		t.Fatalf("pending queried %d times over 35 ticks at a 10ms window, want 3", calls)
	}
}
