package parallel

import (
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// TestIncrementalDegreeMatchesFrozenWorld pauses a running churn system at
// random moments and checks, for every live leaver, that its ledger row
// (degree.go) reports exactly the frozen world's RelevantDegree — the
// quantity exits are judged on — and, per neighbor, exactly as many edges as
// the frozen process graph holds between the two; and that its cached
// answer is SINGLE's verdict on that row, which every change of the row
// re-judges under the row's lock. A full pause is a quiescent point: no
// action is open and no commit is half done. The verdict hook runs where the
// exit was judged, often inside the leaver's own action on a worker, so it
// may neither pause nor take a degMu; it checks what it can see without
// them — a granted leaver is gone and suspended for good, and no two
// verdicts are handed over at once. A mid-run Mutate injects junk in-flight
// references and rewrites stored references behind the ledger's back to
// exercise the reseed path as well, in a world that already has gone
// processes: a diff base that outlived the strike would make a struck
// process's next action count the change a second time. One extra leaver is
// pinned by two inert holders until the strike releases it, so SINGLE cannot
// grant it and the run cannot end before the strike has fired, however fast
// the machine gets through it.
func TestIncrementalDegreeMatchesFrozenWorld(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rt, nodes, leaving := buildShardedRuntime(512, 0.5, 41, core.VariantFDP, oracle.Single{}, shards)
		held := ref.ByIndex(len(nodes))
		pins := [2]*fixedRefsProto{{refs: []ref.Ref{held}}, {refs: []ref.Ref{held}}}
		rt.AddProcess(held, sim.Leaving, core.New(core.VariantFDP))
		for i, pin := range pins {
			rt.AddProcess(ref.ByIndex(len(nodes)+1+i), sim.Staying, pin)
		}
		total := uint64(leaving.Len()) + 1
		var inHook atomic.Bool
		verdicts := 0 // plain: verdicts are handed over one at a time
		rt.SetOracleHook(func(u ref.Ref, granted bool) {
			if !inHook.CompareAndSwap(false, true) {
				t.Errorf("shards=%d: two verdict hooks at once", shards)
			}
			verdicts++
			if p := rt.lookup(u); granted && (p.life.Load() != 2 || !p.exitPending.Load()) {
				t.Errorf("shards=%d: %v granted but life=%d exitPending=%v", shards, u, p.life.Load(), p.exitPending.Load())
			}
			inHook.Store(false)
		})
		rt.Start()
		if rt.jd == nil {
			t.Fatal("Single must enable degree tracking")
		}
		deadline := time.Now().Add(20 * time.Second)
		checks, struck := 0, false
		for time.Now().Before(deadline) {
			if rt.Gone() == total && checks > 0 {
				break
			}
			if !struck && rt.Gone() > 3 && checks >= 2 {
				// Junk in-flight references, one stored reference added and
				// the pins' dropped, mid-run: Mutate must reseed the counters
				// to match.
				rt.Mutate(func(v *MutableView) {
					live := v.Live()
					for i := 0; i < 5 && i < len(live); i++ {
						v.Enqueue(live[i], sim.NewMessage("junk",
							sim.RefInfo{Ref: nodes[(i*7)%len(nodes)], Mode: sim.Staying}))
					}
					pins[0].refs, pins[1].refs = nil, nil
					struck = storeUnknownLeaver(v, live)
				})
			}
			checks++
			rt.pauseAll()
			w := rt.freezeUnderPause()
			pg := w.PG()
			for _, p := range rt.procs {
				if p == nil || p.mode != sim.Leaving || p.life.Load() == 2 {
					continue
				}
				want, rel := w.RelevantDegree(p.id)
				if !rel {
					rt.resumeAll()
					t.Fatalf("shards=%d: live leaver %v not relevant in frozen world", shards, p.id)
				}
				got := rt.ledger.Degree(p.id)
				if got != want {
					rt.resumeAll()
					t.Fatalf("shards=%d: leaver %v incremental degree %d, frozen world says %d (checks=%d)",
						shards, p.id, got, want, checks)
				}
				if ok := p.oracleOK.Load(); ok != (oracle.Single{}).JudgeDegree(got) {
					rt.resumeAll()
					t.Fatalf("shards=%d: leaver %v has degree %d and a cached answer %v (checks=%d)",
						shards, p.id, got, ok, checks)
				}
				for _, e := range rt.ledger.Pairs(p.id) {
					got, q := e.Val, e.Key
					if want := pg.EdgeCount(p.id, q) + pg.EdgeCount(q, p.id); int(got) != want {
						rt.resumeAll()
						t.Fatalf("shards=%d: ledger holds %d edges between %v and %v, frozen world %d (checks=%d)",
							shards, got, p.id, q, want, checks)
					}
				}
			}
			rt.resumeAll()
			time.Sleep(500 * time.Microsecond)
		}
		rt.Stop()
		if rt.Gone() != total {
			t.Fatalf("shards=%d: only %d/%d exits", shards, rt.Gone(), total)
		}
		if checks < 3 {
			t.Fatalf("shards=%d: too few mid-run checks (%d)", shards, checks)
		}
		if !struck {
			t.Fatalf("shards=%d: strike never fired", shards)
		}
		if uint64(verdicts) < total {
			t.Fatalf("shards=%d: %d verdicts for %d exits", shards, verdicts, total)
		}
	}
}

// storeUnknownLeaver makes the first live staying process that stores no
// reference of some live leaver store one, and reports whether it found such
// a pair.
func storeUnknownLeaver(v *MutableView, live []ref.Ref) bool {
	for _, x := range live {
		p, ok := v.ProtocolOf(x).(*core.Proc)
		if !ok || v.ModeOf(x) != sim.Staying {
			continue
		}
		stored := p.NeighborRefs()
		for _, l := range live {
			if !slices.Contains(stored, l) && v.ModeOf(l) == sim.Leaving {
				p.SetNeighbor(l, sim.Staying)
				return true
			}
		}
	}
	return false
}

// TestMutateReseedMatchesFrozenWorld strikes a runtime on two, three and
// four shards, after its workers' first iterations left mail in flight and
// some leavers gone, with a Mutate that rewrites stored references: every
// staying process drops a neighbour, and every live process learns one more.
// The reseed must leave every live leaver's ledger degree at the frozen
// world's RelevantDegree and its cached answer at SINGLE's verdict on that
// degree.
func TestMutateReseedMatchesFrozenWorld(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			rt, _, _ := buildShardedRuntime(60, 0.5, seed, core.VariantFDP, oracle.Single{}, shards)
			rt.seal()
			for range 3 {
				for _, sh := range rt.shards {
					sh.iterate()
				}
			}
			// degrees reads every live leaver's degree in the frozen world.
			degrees := func(w *sim.World) map[ref.Ref]int {
				out := map[ref.Ref]int{}
				for _, i := range rt.leavers {
					if p := rt.procs[i]; p.life.Load() != 2 {
						out[p.id], _ = w.RelevantDegree(p.id)
					}
				}
				return out
			}
			before := degrees(rt.Freeze())
			rt.Mutate(func(v *MutableView) {
				live := v.Live()
				for i, x := range live {
					p := v.ProtocolOf(x).(*core.Proc)
					if stored := p.NeighborRefs(); len(stored) > 0 && v.ModeOf(x) == sim.Staying {
						p.RemoveNeighbor(stored[0])
					}
					if other := live[(i*7+int(seed))%len(live)]; other != x {
						p.SetNeighbor(other, v.ModeOf(other))
					}
				}
			})
			after := degrees(rt.Freeze())
			if reflect.DeepEqual(before, after) {
				t.Fatalf("shards=%d seed %d: the strike moved no leaver's degree: the check shows nothing", shards, seed)
			}
			for u, want := range after {
				if got := rt.ledger.Degree(u); got != want {
					t.Fatalf("shards=%d seed %d: leaver %v has ledger degree %d after the strike, frozen world %d",
						shards, seed, u, got, want)
				}
				if ok := rt.lookup(u).oracleOK.Load(); ok != (oracle.Single{}).JudgeDegree(want) {
					t.Fatalf("shards=%d seed %d: leaver %v has degree %d and a cached answer %v", shards, seed, u, want, ok)
				}
			}
		}
	}
}

// TestDegreePathRefusesEveryExit asserts the degree path runs and still
// refuses unsafe exits: with Always(false), over 50 ms of seeded virtual
// time, no process may ever leave — and none is ever put on a ready list —
// while the coordinator keeps its epochs.
func TestDegreePathRefusesEveryExit(t *testing.T) {
	rt, _, _ := buildShardedRuntime(12, 0.5, 7, core.VariantFDP, oracle.Always(false), 2)
	never := func(*sim.World) bool { return false }
	rt.RunSeeded(7, never, time.Millisecond, 50*time.Millisecond)
	if rt.jd == nil {
		t.Fatal("Always must enable degree tracking")
	}
	if rt.Gone() != 0 {
		t.Fatalf("Always(false) on the degree path let %d exits through", rt.Gone())
	}
	if rt.Epochs() == 0 {
		t.Fatal("coordinator never ran an epoch")
	}
	for _, sh := range rt.shards {
		if len(sh.ready) != 0 {
			t.Fatalf("Always(false) put %d processes on shard %d's ready list", len(sh.ready), sh.idx)
		}
	}
}

// TestReadyLeaverOvertakesTheScan drives one shard by hand — no worker, no
// coordinator, so every step is deterministic. A leaver sits right behind
// the timeout cursor when seal judges its verdict true: it must time out
// first in the next round, and be gone after that timeout — its worker
// commits the exit in the action that asks — long before the scan has
// served every other process once.
func TestReadyLeaverOvertakesTheScan(t *testing.T) {
	const others = 4 * timeoutBudget
	space := ref.NewSpace()
	nodes := space.NewN(others + 1)
	leaver, anchor := nodes[0], nodes[1]
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(1)
	lp := core.New(core.VariantFDP)
	lp.SetAnchor(anchor, sim.Staying) // degree 1: SINGLE grants at once
	rt.AddProcess(leaver, sim.Leaving, lp)
	for _, r := range nodes[1:] {
		rt.AddProcess(r, sim.Staying, &fixedRefsProto{})
	}
	var order []ref.Ref // who timed out, in order
	exitedAfter := -1   // timeouts run when the leaver's exit was emitted
	rt.AddEventHook(func(e sim.Event) {
		switch e.Kind {
		case sim.EvTimeout:
			order = append(order, e.Proc)
		case sim.EvExit:
			if e.Proc == leaver {
				exitedAfter = len(order)
			}
		}
	})
	rt.seal()
	sh, p := rt.shards[0], rt.lookup(leaver)
	if !p.oracleOK.Load() || !p.ready.Load() || len(sh.ready) != 1 {
		t.Fatalf("seal did not queue the leaver: oracleOK=%v ready=%v list=%v", p.oracleOK.Load(), p.ready.Load(), sh.ready)
	}
	sh.cursor = 1 // the scan has just passed the leaver (index 0)

	sh.timeoutRound()
	if len(order) == 0 || order[0] != leaver {
		t.Fatalf("ready leaver did not time out first: round began with %v", order[:min(3, len(order))])
	}
	if exitedAfter != 1 || rt.Gone() != 1 || p.ready.Load() || len(sh.ready) != 0 {
		t.Fatalf("after its timeout: exit after %d timeouts, gone=%d ready=%v list=%v; want gone after its own",
			exitedAfter, rt.Gone(), p.ready.Load(), sh.ready)
	}
	sh.timeoutRound()
	for i, r := range order[1:] {
		if r == leaver {
			t.Fatalf("leaver timed out again (event %d)", i+1)
		}
	}
}

// TestDegreeSeedCountsInitialInFlight checks the Start-time reseed counts
// pre-Start injected messages as implicit edges: a leaver whose only tie to
// the system is a reference travelling in a message must report degree 1.
func TestDegreeSeedCountsInitialInFlight(t *testing.T) {
	space := ref.NewSpace()
	nodes := space.NewN(3)
	rt := NewRuntime(oracle.Single{})
	rt.AddProcess(nodes[0], sim.Staying, core.New(core.VariantFDP))
	rt.AddProcess(nodes[1], sim.Staying, core.New(core.VariantFDP))
	rt.AddProcess(nodes[2], sim.Leaving, core.New(core.VariantFDP))
	// nodes[0] is being told about the leaver: the ref rides in flight.
	rt.Enqueue(nodes[0], sim.NewMessage("intro", sim.RefInfo{Ref: nodes[2], Mode: sim.Leaving}))
	// seal is the part of Start that runs before any worker exists: reading
	// the ledger here cannot race a delivery of the intro (after Start a
	// worker may consume it first, and both degrees then read 0).
	rt.seal()
	got := rt.ledger.Degree(nodes[2])
	want, _ := rt.freezeUnderPause().RelevantDegree(nodes[2])
	if got != want || want == 0 {
		t.Fatalf("seeded degree %d, frozen world %d (want equal and nonzero)", got, want)
	}
}

// blockingForwarder hands every reference it is sent on to one fixed
// process, but only once the test lets it: Deliver reports that it was
// entered and then waits.
type blockingForwarder struct {
	fixedRefsProto
	to               ref.Ref
	entered, release chan struct{}
}

func (b *blockingForwarder) Deliver(ctx sim.Context, m sim.Message) {
	close(b.entered)
	<-b.release
	ctx.Send(b.to, sim.NewMessage("fwd", m.Refs...))
}

// TestOpenDeliveryKeepsItsReferencesCounted forces the one schedule the
// ledger's over-count exists for, on two workers. A leaver has two
// neighbors: its anchor, and a stayer on the other shard that is in the
// middle of delivering the message that carries the only other reference to
// it. While that handler runs the reference is in nobody's store and in
// nobody's mailbox, and the handler may yet keep it — the leaver's own
// timeout, asking to exit then, must still count it and be denied, and the
// leaver stays awake. The handler passes the reference on to the anchor;
// with the delivery over, the leaver has one neighbor, that delivery's
// worker re-judges it and puts it on its shard's ready list, and its next
// timeout is granted. No goroutine timing: the handler blocks until the
// first timeout has returned.
func TestOpenDeliveryKeepsItsReferencesCounted(t *testing.T) {
	space := ref.NewSpace()
	leaver, holder, anchor := space.New(), space.New(), space.New()
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(2)
	fwd := &blockingForwarder{fixedRefsProto: fixedRefsProto{refs: []ref.Ref{anchor}},
		to: anchor, entered: make(chan struct{}), release: make(chan struct{})}
	rt.AddProcess(leaver, sim.Leaving, &alwaysExit{fixedRefsProto{refs: []ref.Ref{anchor}}})
	rt.AddProcess(holder, sim.Staying, fwd)
	rt.AddProcess(anchor, sim.Staying, &fixedRefsProto{})
	rt.Enqueue(holder, sim.NewMessage("intro", sim.RefInfo{Ref: leaver, Mode: sim.Leaving}))
	rt.seal()
	p := rt.lookup(leaver)
	shl, shh := p.sh, rt.lookup(holder).sh
	if shl == shh {
		t.Fatal("the leaver and the holder share a shard")
	}
	iterate := func(sh *shard, round func() int) {
		sh.actMu.RLock()
		round()
		sh.flushAll()
		sh.actMu.RUnlock()
	}

	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		iterate(shh, shh.deliverRound)
	}()
	<-fwd.entered
	iterate(shl, shl.timeoutRound)
	if rt.Gone() != 0 || rt.ExitDenied() != 1 || p.life.Load() != 0 || p.exitPending.Load() || p.oracleOK.Load() {
		t.Fatalf("exit judged while the delivery was open: gone=%d denied=%d life=%d pending=%v oracleOK=%v; want an awake denial",
			rt.Gone(), rt.ExitDenied(), p.life.Load(), p.exitPending.Load(), p.oracleOK.Load())
	}
	close(fwd.release)
	<-delivered
	if !p.oracleOK.Load() || !p.ready.Load() {
		t.Fatalf("the delivery's end did not re-judge the leaver: oracleOK=%v ready=%v", p.oracleOK.Load(), p.ready.Load())
	}
	iterate(shl, shl.timeoutRound)
	if rt.Gone() != 1 {
		t.Fatalf("exit not granted after the delivery (gone=%d denied=%d)", rt.Gone(), rt.ExitDenied())
	}
	if w := rt.Freeze(); !w.RelevantComponentsIntact() {
		t.Fatal("the stayers lost each other")
	}
}

// handOff hands every stored reference but the first to the first, drops
// them, and asks to exit, all in its first timeout.
type handOff struct{ fixedRefsProto }

func (h *handOff) Timeout(ctx sim.Context) {
	for _, r := range h.refs[1:] {
		ctx.Send(h.refs[0], sim.NewMessage("fwd", sim.RefInfo{Ref: r, Mode: sim.Staying}))
	}
	h.refs = h.refs[:1]
	ctx.Exit()
}

// TestExitIsJudgedAfterTheAction pins where a worker judges the exit an
// action asks for: on the row as the action left it, after its own pair
// updates (syncRefs, payDebt). The leaver holds two stayers; its timeout
// hands the second to the first and asks to exit, which leaves it one
// neighbor, and SINGLE must grant in that same action. Judged before the
// store diff, the row still holds both and the exit is denied.
func TestExitIsJudgedAfterTheAction(t *testing.T) {
	space := ref.NewSpace()
	l, a, x := space.New(), space.New(), space.New()
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(1)
	rt.AddProcess(l, sim.Leaving, &handOff{fixedRefsProto{refs: []ref.Ref{a, x}}})
	rt.AddProcess(a, sim.Staying, &fixedRefsProto{})
	rt.AddProcess(x, sim.Staying, &fixedRefsProto{})
	rt.seal()
	sh, p := rt.shards[0], rt.lookup(l)
	if p.oracleOK.Load() {
		t.Fatal("SINGLE says yes to a leaver with two neighbors")
	}
	sh.timeoutRound()
	if rt.Gone() != 1 || rt.ExitDenied() != 0 || sh.commits != 1 {
		t.Fatalf("gone=%d denied=%d worker commits=%d; want the exit granted in the action that asked",
			rt.Gone(), rt.ExitDenied(), sh.commits)
	}
	if w := rt.Freeze(); !w.RelevantComponentsIntact() {
		t.Fatal("the stayers lost each other")
	}
}

// replier runs a test-chosen handler on its first delivery; its store is the
// fixedRefsProto's, which the handler may change.
type replier struct {
	fixedRefsProto
	on func(r *replier, ctx sim.Context)
}

func (r *replier) Deliver(ctx sim.Context, _ sim.Message) {
	if on := r.on; on != nil {
		r.on = nil
		on(r, ctx)
	}
}

// TestReplyTakesTheDeliveredPair drives one delivery by hand per case: a
// stayer s, on the first of two shards, is handed a message carrying the
// leaver l, on the second, and its handler replies, stores, forwards or does
// nothing. Only the action's first add on {s, l} — a one-reference message
// whose pair it is, or the store of l — may take the delivered message's pair
// over; everything else is counted as before, and a reply refused by a gone l
// takes nothing. Whatever the handler did, the ledger must read the frozen
// world's degree for every live leaver once the action is over, and the debt
// must be settled.
func TestReplyTakesTheDeliveredPair(t *testing.T) {
	space := ref.NewSpace()
	s, l, x := space.New(), space.New(), space.New()
	staying := func(r ref.Ref) sim.RefInfo { return sim.RefInfo{Ref: r, Mode: sim.Staying} }
	leaving := func(r ref.Ref) sim.RefInfo { return sim.RefInfo{Ref: r, Mode: sim.Leaving} }
	cases := []struct {
		name     string
		on       func(r *replier, ctx sim.Context)
		gone     bool // l exits before s delivers
		handoffs uint64
	}{
		{"nothing", func(*replier, sim.Context) {}, false, 0},
		{"reply", func(_ *replier, ctx sim.Context) { ctx.Send(l, sim.NewMessage("fwd", staying(s))) }, false, 1},
		{"store", func(r *replier, _ sim.Context) { r.refs = []ref.Ref{l} }, false, 1},
		{"reply then store", func(r *replier, ctx sim.Context) {
			ctx.Send(l, sim.NewMessage("fwd", staying(s)))
			r.refs = []ref.Ref{l}
		}, false, 1},
		{"to itself", func(_ *replier, ctx sim.Context) { ctx.Send(s, sim.NewMessage("fwd", leaving(l))) }, false, 1},
		{"another pair", func(_ *replier, ctx sim.Context) { ctx.Send(l, sim.NewMessage("fwd", leaving(x))) }, false, 0},
		{"two references", func(_ *replier, ctx sim.Context) {
			ctx.Send(l, sim.NewMessage("fwd", staying(s), leaving(x)))
		}, false, 0},
		{"refused", func(_ *replier, ctx sim.Context) { ctx.Send(l, sim.NewMessage("fwd", staying(s))) }, true, 0},
	}
	for _, c := range cases {
		rt := NewRuntime(oracle.Single{})
		rt.SetShards(2)
		rt.AddProcess(s, sim.Staying, &replier{on: c.on})
		rt.AddProcess(l, sim.Leaving, &fixedRefsProto{})
		rt.AddProcess(x, sim.Leaving, &fixedRefsProto{})
		rt.Enqueue(s, sim.NewMessage("present", leaving(l)))
		rt.seal()
		ps, pl := rt.lookup(s), rt.lookup(l)
		if ps.sh == pl.sh {
			t.Fatal("s and l share a shard")
		}
		if c.gone {
			rt.commitExit(pl)
		}
		sh := ps.sh
		if got := sh.deliverRound(); got == 0 { // "to itself" delivers its message too
			t.Fatalf("%s: nothing delivered", c.name)
		}
		sh.flushAll()
		if sh.handoffs != c.handoffs || ps.owed != nil {
			t.Errorf("%s: %d handoffs, debt left to %v; want %d, none", c.name, sh.handoffs, ps.owed, c.handoffs)
		}
		if c.gone && rt.Dropped() != 1 {
			t.Errorf("%s: %d drops, want the reply", c.name, rt.Dropped())
		}
		w := rt.Freeze() // absorbs the inbox the reply went to
		for _, r := range []ref.Ref{l, x} {
			if rt.lookup(r).life.Load() == 2 {
				continue
			}
			want, _ := w.RelevantDegree(r)
			if got := rt.ledger.Degree(r); got != want {
				t.Errorf("%s: leaver %v ledger degree %d, frozen world %d", c.name, r, got, want)
			}
		}
	}
}

// TestFastEpochTakesNoShardLock runs a whole epoch under a degree oracle,
// with nothing asleep, while an exit request waits for the coordinator — as
// one filed while something slept does: it must commit at the epoch's
// pause, and the leaver next to it, whose row the commit shrinks, must be
// re-judged and queued for its timeout.
func TestFastEpochTakesNoShardLock(t *testing.T) {
	space := ref.NewSpace()
	exiting, waiting, anchor := space.New(), space.New(), space.New()
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(2)
	rt.AddProcess(exiting, sim.Leaving, &fixedRefsProto{})
	rt.AddProcess(waiting, sim.Leaving, &fixedRefsProto{refs: []ref.Ref{anchor, exiting}})
	rt.AddProcess(anchor, sim.Staying, &fixedRefsProto{})
	rt.seal()
	pe, pw := rt.lookup(exiting), rt.lookup(waiting)
	if pw.oracleOK.Load() {
		t.Fatal("SINGLE says yes to a leaver with two neighbors")
	}
	pe.exitPending.Store(true)
	rt.requestExit(pe)

	sh := pw.sh
	rt.epoch()
	if rt.Gone() != 1 || pe.life.Load() != 2 {
		t.Fatalf("pending degree-1 exit not committed (gone=%d)", rt.Gone())
	}
	if !pw.oracleOK.Load() || !pw.ready.Load() || len(sh.ready) != 1 {
		t.Fatalf("neighbor not re-judged: oracleOK=%v ready=%v list=%v",
			pw.oracleOK.Load(), pw.ready.Load(), sh.ready)
	}
}

// TestGrantedExitIsFinal pins what the workers' "may this process act" check
// relies on. The check reads two words, exitPending and life; a grant never
// lifts the suspension, so from the moment the process turns gone, at every
// point the commit publishes anything (the verdict hook, EvExit, the end of
// the action that asked), it is suspended AND gone, and no pair of reads
// finds it neither. A message that asks for admission after the verdict is
// refused like any send to a gone process, its pairs uncounted. And a second
// retire of a gone process is refused: nothing is counted or emitted twice.
// Driven by hand, no goroutine timing.
func TestGrantedExitIsFinal(t *testing.T) {
	space := ref.NewSpace()
	leaver, anchor := space.New(), space.New()
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(1)
	lp := core.New(core.VariantFDP)
	lp.SetAnchor(anchor, sim.Staying)
	rt.AddProcess(leaver, sim.Leaving, lp)
	rt.AddProcess(anchor, sim.Staying, &fixedRefsProto{})
	sh, p := rt.shards[0], rt.lookup(leaver)

	published := 0
	check := func(at string) {
		published++
		if life, pending := p.life.Load(), p.exitPending.Load(); life != 2 || !pending {
			t.Errorf("%s: life=%d exitPending=%v; a granted process must be gone and stay suspended", at, life, pending)
		}
	}
	exits, timeouts := 0, 0
	rt.AddEventHook(func(e sim.Event) {
		switch {
		case e.Kind == sim.EvExit:
			exits++
			check("EvExit")
		case e.Kind == sim.EvTimeout && e.Proc == leaver:
			timeouts++
		}
	})
	rt.SetOracleHook(func(u ref.Ref, granted bool) {
		if !granted {
			return
		}
		check("verdict hook")
		// A send that looked the leaver up before the verdict asks now:
		// refused, and the pair it counted on the way in is taken back.
		late := sim.NewMessage("late", sim.RefInfo{Ref: anchor, Mode: sim.Staying})
		if _, ok := rt.admit(p, &late); ok {
			t.Error("a message was admitted for a process already gone")
		}
	})
	rt.seal()         // judges the seeded degree 1: oracleOK, ready
	sh.timeoutRound() // the leaver's timeout asks for the exit, and its worker commits it
	if timeouts != 1 {
		t.Fatalf("leaver did not time out: timeouts=%d", timeouts)
	}
	check("after the action")
	if published != 3 || rt.Gone() != 1 || sh.commits != 1 {
		t.Fatalf("exit not committed by the worker: gone=%d commits=%d, %d of 3 checkpoints reached",
			rt.Gone(), sh.commits, published)
	}
	if p.mb.len() != 0 || p.depth.Load() != 0 {
		t.Fatalf("%d message(s) queued to the gone leaver after the verdict (depth %d)", p.mb.len(), p.depth.Load())
	}
	sh.deliverRound()
	sh.timeoutRound()
	if timeouts != 1 {
		t.Fatalf("gone leaver timed out again (%d timeouts)", timeouts)
	}

	awake := sh.awake.Load()
	if _, ok := rt.retire(p, true); ok {
		t.Fatal("a gone process was retired again")
	}
	if rt.Gone() != 1 || exits != 1 || rt.asleep.Load() != 0 || sh.awake.Load() != awake {
		t.Fatalf("second exit of a gone process went through: gone=%d EvExit=%d asleep=%d awake=%d→%d",
			rt.Gone(), exits, rt.asleep.Load(), awake, sh.awake.Load())
	}
}

// TestComponentsMatchFrozenWorld: the initial components seal and Reseal
// take from a sealed world equal the frozen world's
// PG().WeaklyConnectedComponents(), built from scratch — same sets, same
// order — on random states with gone and asleep processes, references to
// gone, unregistered and the holder's own process, and references in
// flight; at Start, and after a strike that ends in Reseal.
func TestComponentsMatchFrozenWorld(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space := ref.NewSpace()
		n := 2 + rng.Intn(40)
		nodes := space.NewN(n + 2) // the last two are never registered
		someRefs := func(max int) []ref.Ref {
			out := make([]ref.Ref, rng.Intn(max+1))
			for i := range out {
				out[i] = nodes[rng.Intn(len(nodes))]
			}
			return out
		}
		inFlight := func() sim.Message {
			var infos []sim.RefInfo
			for _, r := range someRefs(2) {
				infos = append(infos, sim.RefInfo{Ref: r, Mode: sim.Staying})
			}
			return sim.NewMessage("m", infos...)
		}
		rt := NewRuntime(oracle.Single{})
		rt.SetShards(1 + rng.Intn(3))
		protos := make([]*fixedRefsProto, n)
		for _, i := range rng.Perm(n) { // registration order differs from reference order
			protos[i] = &fixedRefsProto{refs: someRefs(3)}
			mode := sim.Staying
			if rng.Intn(2) == 0 {
				mode = sim.Leaving
			}
			rt.AddProcess(nodes[i], mode, protos[i])
		}
		for i := 0; i < n; i++ {
			rt.Enqueue(nodes[rng.Intn(n)], inFlight())
		}
		for i := 0; i < n/4; i++ {
			switch p := rt.lookup(nodes[rng.Intn(n)]); {
			case p.life.Load() != 0:
			case rng.Intn(2) == 0:
				p.life.Store(2)
			default:
				rt.ForceAsleep(p.id)
			}
		}
		rt.seal()
		if want := rt.Freeze().PG().WeaklyConnectedComponents(); !reflect.DeepEqual(rt.initially, want) {
			t.Fatalf("seed %d: seal found %v, frozen world %v", seed, rt.initially, want)
		}
		var want [][]ref.Ref
		rt.Mutate(func(v *MutableView) {
			for _, fp := range protos {
				if rng.Intn(3) == 0 {
					fp.refs = someRefs(3)
				}
			}
			for i := 0; i < n/2; i++ {
				v.Enqueue(nodes[rng.Intn(n)], inFlight())
			}
			v.Reseal()
			want = rt.freezeUnderPause().PG().WeaklyConnectedComponents()
		})
		if got := rt.InitialComponents(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Reseal found %v, frozen world %v", seed, got, want)
		}
	}
}

// TestAdjacentLeaversExitSideBySide lets workers on different shards commit
// the exits of leavers that count each other, on two, three and four shards
// over fifty seeds each. Two pairs of leavers know only each other: both are
// granted at seal, sit on different shards (consecutive indexes) and time
// out in their workers' first rounds, so each is judged while the other may
// be retired and not yet erased from its row. A third leaver holds a stayer
// and a fourth leaver that holds only it: it may go only once the fourth has
// gone. Around them, a random churn world of protocol processes. A retired
// neighbor left in a row only over-counts (DESIGN.md §12): every leaver must
// exit, and the stayers must stay together.
func TestAdjacentLeaversExitSideBySide(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		for seed := int64(1); seed <= 50; seed++ {
			rt, nodes, leaving := buildShardedRuntime(24, 0.6, seed, core.VariantFDP, oracle.Single{}, shards)
			extra := ref.NewSpace().NewN(len(nodes) + 6)[len(nodes):]
			holds := func(refs ...ref.Ref) *exitWhenAllowed {
				return &exitWhenAllowed{fixedRefsProto{refs: refs}}
			}
			rt.AddProcess(extra[0], sim.Leaving, holds(extra[1]))
			rt.AddProcess(extra[1], sim.Leaving, holds(extra[0]))
			rt.AddProcess(extra[2], sim.Leaving, holds(extra[3]))
			rt.AddProcess(extra[3], sim.Leaving, holds(extra[2]))
			stayer := nodes[0]
			for leaving.Has(stayer) {
				stayer = nodes[ref.Index(stayer)+1]
			}
			rt.AddProcess(extra[4], sim.Leaving, holds(stayer, extra[5]))
			rt.AddProcess(extra[5], sim.Leaving, holds(extra[4]))
			want := uint64(leaving.Len() + len(extra))
			rt.Start()
			deadline := time.Now().Add(20 * time.Second)
			for rt.Gone() < want && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
			rt.Stop()
			if rt.Gone() != want {
				t.Fatalf("shards=%d seed=%d: %d/%d exits", shards, seed, rt.Gone(), want)
			}
			if w := rt.Freeze(); !w.RelevantComponentsIntact() || !w.Legitimate(sim.FDP) {
				t.Fatalf("shards=%d seed=%d: the run ended unsafe or not legitimate", shards, seed)
			}
		}
	}
}

// plainCounting is SINGLE behind a wrapper that counts its calls in plain
// fields, as the benchmark's traced oracle does.
type plainCounting struct {
	oracle.Single
	judged, evaluated int
}

func (o *plainCounting) JudgeDegree(deg int) bool {
	o.judged++
	return o.Single.JudgeDegree(deg)
}

func (o *plainCounting) Evaluate(w *sim.World, u ref.Ref) bool {
	o.evaluated++
	return o.Single.Evaluate(w, u)
}

// TestOracleCallsOneAtATime is what the benchmark's traced pass assumes,
// in the package: an oracle wrapper and a verdict hook that count in plain
// fields stay race-free on four shards, where workers judge rows and commit
// exits side by side. Run under -race. Every exit is committed by a worker,
// and every grant reaches the hook.
func TestOracleCallsOneAtATime(t *testing.T) {
	o := &plainCounting{}
	rt, _, leaving := buildShardedRuntime(512, 0.5, 29, core.VariantFDP, o, 4)
	var grants, denials int
	rt.SetOracleHook(func(_ ref.Ref, ok bool) {
		if ok {
			grants++
		} else {
			denials++
		}
	})
	rt.Start()
	deadline := time.Now().Add(30 * time.Second)
	for rt.Gone() < uint64(leaving.Len()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	if rt.Gone() != uint64(leaving.Len()) {
		t.Fatalf("only %d/%d exits", rt.Gone(), leaving.Len())
	}
	var commits uint64
	for i := 0; i < rt.Shards(); i++ {
		commits += rt.ShardTraffic(i).ExitCommits
	}
	if o.judged == 0 || o.evaluated != 0 || uint64(grants) != rt.Gone() || commits != rt.Gone() {
		t.Fatalf("%d JudgeDegree, %d Evaluate, %d grants, %d worker commits for %d exits; want judgements, no Evaluate, every exit granted and committed by a worker",
			o.judged, o.evaluated, grants, commits, rt.Gone())
	}
}
