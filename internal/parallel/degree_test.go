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
// (degree.go) reports exactly the frozen world's
// RelevantDegree — the quantity the epoch fast path judges exits on — and,
// per neighbor, exactly as many edges as the frozen process graph holds
// between the two. A full pause is a quiescent point: no action is open and
// no commit is half done. The ledger's other promise is checked where it is
// least exact: the oracle hook runs on the coordinator between a grant and
// the erasure of the gone leaver from its neighbors' rows, and from
// there (freezeMu is held, so stopping the shards is pauseAll's own second
// half) every live leaver's count must be at least the frozen degree — and
// above it for a leaver next to the one just gone, which the protocol
// rarely produces (a leaver exits from under a staying anchor) and two
// leavers that know only each other always do. A mid-run
// Mutate injects junk in-flight references and
// rewrites stored references behind the ledger's back to exercise the reseed
// path as well, in a world that already has gone processes: a last-synced
// snapshot left stale there makes a struck process's next action count the
// change a second time. One extra leaver is pinned by two inert holders until
// the strike releases it, so SINGLE cannot grant it and the run cannot end
// before the strike has fired, however fast the machine gets through it.
func TestIncrementalDegreeMatchesFrozenWorld(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rt, nodes, leaving := buildShardedRuntime(512, 0.5, 41, core.VariantFDP, oracle.Single{}, shards)
		held := ref.ByIndex(len(nodes))
		pins := [2]*fixedRefsProto{{refs: []ref.Ref{held}}, {refs: []ref.Ref{held}}}
		rt.AddProcess(held, sim.Leaving, core.New(core.VariantFDP))
		for i, pin := range pins {
			rt.AddProcess(ref.ByIndex(len(nodes)+1+i), sim.Staying, pin)
		}
		// Two more leavers know only each other: whichever SINGLE grants
		// first is still counted by the other when the hook below looks.
		twins := [2]ref.Ref{ref.ByIndex(len(nodes) + 3), ref.ByIndex(len(nodes) + 4)}
		for i, r := range twins {
			tp := core.New(core.VariantFDP)
			tp.SetNeighbor(twins[1-i], sim.Leaving)
			rt.AddProcess(r, sim.Leaving, tp)
		}
		total := uint64(leaving.Len()) + 3
		var midCommit, overCounts atomic.Int64
		rt.SetOracleHook(func(u ref.Ref, granted bool) {
			if !granted || (midCommit.Add(1) > 64 && u != twins[0] && u != twins[1]) {
				return
			}
			for _, sh := range rt.shards {
				sh.actMu.Lock()
			}
			w := rt.freezeUnderPause()
			for _, p := range rt.procs {
				if p == nil || p.mode != sim.Leaving || p.life.Load() == 2 {
					continue
				}
				want, _ := w.RelevantDegree(p.id)
				switch got := rt.ledger.Degree(p.id); {
				case got < want:
					t.Errorf("shards=%d: %v just granted: leaver %v counts %d neighbors, frozen world %d",
						shards, u, p.id, got, want)
				case got > want:
					overCounts.Add(1)
				}
			}
			for _, sh := range rt.shards {
				sh.actMu.Unlock()
			}
		})
		rt.Start()
		if !rt.trackDeg {
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
				if got := rt.ledger.Degree(p.id); got != want {
					rt.resumeAll()
					t.Fatalf("shards=%d: leaver %v incremental degree %d, frozen world says %d (checks=%d)",
						shards, p.id, got, want, checks)
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
		if midCommit.Load() < 64 || overCounts.Load() == 0 {
			t.Fatalf("shards=%d: %d mid-commit checks saw %d over-counts; want 64 and some",
				shards, midCommit.Load(), overCounts.Load())
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

// TestEpochFastPathJudgesExits asserts the fast path actually runs (no
// frozen world needed) and still refuses unsafe exits: with Always(false)
// no process may ever leave — and none is ever put on a ready list — with
// Single everyone must.
func TestEpochFastPathJudgesExits(t *testing.T) {
	rt, _, _ := buildRuntime(12, 0.5, 7, core.VariantFDP, oracle.Always(false))
	rt.Start()
	if !rt.trackDeg {
		t.Fatal("Always must enable degree tracking")
	}
	time.Sleep(50 * time.Millisecond)
	rt.Stop()
	if rt.Gone() != 0 {
		t.Fatalf("Always(false) under the fast path let %d exits through", rt.Gone())
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
// the timeout cursor when an epoch turns its verdict true: it must time out
// first in the next round and be gone after the following epoch, long before
// the scan has served every other process once; a Rebalance in between must
// neither lose it nor run it twice.
func TestReadyLeaverOvertakesTheScan(t *testing.T) {
	const others = 4 * timeoutBudget
	space := ref.NewSpace()
	nodes := space.NewN(others + 1)
	leaver, anchor := nodes[0], nodes[1]
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(1)
	lp := core.New(core.VariantFDP)
	lp.SetAnchor(anchor, sim.Staying) // degree 1: SINGLE grants at the first epoch
	rt.AddProcess(leaver, sim.Leaving, lp)
	for _, r := range nodes[1:] {
		rt.AddProcess(r, sim.Staying, &fixedRefsProto{})
	}
	var order []ref.Ref // who timed out, in order
	exited := false
	rt.AddEventHook(func(e sim.Event) {
		switch e.Kind {
		case sim.EvTimeout:
			order = append(order, e.Proc)
		case sim.EvExit:
			exited = e.Proc == leaver
		}
	})
	rt.seal()
	sh, p := rt.shards[0], rt.lookup(leaver)
	sh.cursor = 1 // the scan has just passed the leaver (index 0)

	rt.epochFast(oracle.Single{})
	if !p.oracleOK.Load() || !p.ready.Load() || len(sh.ready) != 1 {
		t.Fatalf("epoch did not queue the leaver: oracleOK=%v ready=%v list=%v", p.oracleOK.Load(), p.ready.Load(), sh.ready)
	}
	rt.rebalanceUnderPause()
	if !p.ready.Load() || len(sh.ready) != 1 || sh.ready[0] != int32(ref.Index(p.id)) {
		t.Fatalf("rebalance lost or duplicated the ready leaver: ready=%v list=%v", p.ready.Load(), sh.ready)
	}
	sh.cursor = 1

	sh.timeoutRound()
	if len(order) == 0 || order[0] != leaver {
		t.Fatalf("ready leaver did not time out first: round began with %v", order[:min(3, len(order))])
	}
	if !p.exitPending.Load() || p.ready.Load() || len(sh.ready) != 0 {
		t.Fatalf("after its timeout: exitPending=%v ready=%v list=%v", p.exitPending.Load(), p.ready.Load(), sh.ready)
	}
	rt.epochFast(oracle.Single{})
	if !exited || rt.Gone() != 1 {
		t.Fatalf("leaver not gone after the next epoch (gone=%d)", rt.Gone())
	}
	if len(order)-1 >= others {
		t.Fatalf("%d other timeouts before the exit: a full lap of %d", len(order)-1, others)
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
// ledger's over-count exists for. A suspended leaver has two neighbors: its
// anchor, and a stayer that is in the middle of delivering the message that
// carries the only other reference to it. While that handler runs the
// reference is in nobody's store and in nobody's mailbox, and the handler may
// yet keep it — an epoch judging then must still count it and deny. The
// handler passes the reference on to the anchor; with the delivery over, the
// leaver has one neighbor and the next epoch grants. No goroutine timing: the
// handler blocks until the first epoch has returned.
func TestOpenDeliveryKeepsItsReferencesCounted(t *testing.T) {
	space := ref.NewSpace()
	leaver, anchor, holder := space.New(), space.New(), space.New()
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(1)
	lp := core.New(core.VariantFDP)
	lp.SetAnchor(anchor, sim.Staying)
	fwd := &blockingForwarder{fixedRefsProto: fixedRefsProto{refs: []ref.Ref{anchor}},
		to: anchor, entered: make(chan struct{}), release: make(chan struct{})}
	rt.AddProcess(leaver, sim.Leaving, lp)
	rt.AddProcess(anchor, sim.Staying, &fixedRefsProto{})
	rt.AddProcess(holder, sim.Staying, fwd)
	rt.Enqueue(holder, sim.NewMessage("intro", sim.RefInfo{Ref: leaver, Mode: sim.Leaving}))
	rt.seal()
	sh, p := rt.shards[0], rt.lookup(leaver)
	requestExit := func() {
		p.exitPending.Store(true)
		rt.requestExit(p)
	}

	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		sh.actMu.RLock()
		sh.deliverRound()
		sh.actMu.RUnlock()
	}()
	<-fwd.entered
	requestExit()
	rt.epochFast(oracle.Single{})
	if rt.Gone() != 0 || rt.ExitDenied() != 1 || p.exitPending.Load() {
		t.Fatalf("exit judged while the delivery was open: gone=%d denied=%d pending=%v; want a denial",
			rt.Gone(), rt.ExitDenied(), p.exitPending.Load())
	}
	close(fwd.release)
	<-delivered
	requestExit()
	rt.epochFast(oracle.Single{})
	if rt.Gone() != 1 {
		t.Fatalf("exit not granted after the delivery (gone=%d denied=%d)", rt.Gone(), rt.ExitDenied())
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
		if ps.shard.Load() == pl.shard.Load() {
			t.Fatal("s and l share a shard")
		}
		if c.gone {
			rt.commitExit(pl)
		}
		sh := rt.shards[ps.shard.Load()]
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

// TestFastEpochTakesNoShardLock holds one shard's action read lock, as a
// worker in the middle of an iteration does, and runs a whole epoch
// meanwhile: a pending degree-1 exit must commit and a leaver whose degree
// changed must be re-judged and queued for its timeout. An epoch that pauses
// the world blocks here until the read lock is gone.
func TestFastEpochTakesNoShardLock(t *testing.T) {
	space := ref.NewSpace()
	nodes := space.NewN(4)
	exiting, waiting, anchor := nodes[0], nodes[1], nodes[2]
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(2)
	for _, l := range []ref.Ref{exiting, waiting} {
		lp := core.New(core.VariantFDP)
		lp.SetAnchor(anchor, sim.Staying)
		rt.AddProcess(l, sim.Leaving, lp)
	}
	rt.AddProcess(anchor, sim.Staying, &fixedRefsProto{})
	rt.AddProcess(nodes[3], sim.Staying, &fixedRefsProto{})
	rt.seal()
	pe, pw := rt.lookup(exiting), rt.lookup(waiting)
	pe.exitPending.Store(true)
	rt.requestExit(pe)

	busy := rt.shards[pw.shard.Load()]
	busy.actMu.RLock()
	done := make(chan struct{})
	go func() {
		rt.epoch()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("epoch waits for a shard's action lock")
	}
	busy.actMu.RUnlock()
	<-done
	if rt.Gone() != 1 || pe.life.Load() != 2 {
		t.Fatalf("pending degree-1 exit not committed (gone=%d)", rt.Gone())
	}
	if !pw.oracleOK.Load() || !pw.ready.Load() || len(busy.ready) != 1 {
		t.Fatalf("dirty leaver not re-judged: oracleOK=%v ready=%v list=%v",
			pw.oracleOK.Load(), pw.ready.Load(), busy.ready)
	}
}

// TestGrantedExitIsFinal pins what the workers' "may this process act" check
// relies on now that the coordinator grants while they run. The check reads
// two words, exitPending and life, and a commit may land between the reads;
// it is safe because a grant never lifts the suspension: from the moment the
// process turns gone, at every point the commit publishes anything (the
// verdict hook, EvExit, the epoch's return), it is suspended AND gone, so no
// pair of reads finds it neither. A message that asks for admission after the
// verdict is refused like any send to a gone process, its pairs uncounted. And a
// second request from a gone process (what a timeout run in that window
// would have filed) is refused: nothing is counted or emitted twice. Driven
// by hand, no goroutine timing.
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
	rt.seal()

	rt.epochFast(oracle.Single{}) // judges the seeded degree 1: oracleOK, ready
	sh.timeoutRound()             // the leaver's timeout requests the exit
	if timeouts != 1 || !p.exitPending.Load() {
		t.Fatalf("leaver did not request its exit: timeouts=%d pending=%v", timeouts, p.exitPending.Load())
	}
	rt.epochFast(oracle.Single{})
	check("after the epoch")
	if published != 3 || rt.Gone() != 1 {
		t.Fatalf("exit not committed: gone=%d, %d of 3 checkpoints reached", rt.Gone(), published)
	}
	if p.mb.len() != 0 || p.depth.Load() != 0 {
		t.Fatalf("%d message(s) queued to the gone leaver after the verdict (depth %d)", p.mb.len(), p.depth.Load())
	}
	sh.deliverRound()
	sh.timeoutRound()
	if timeouts != 1 {
		t.Fatalf("gone leaver timed out again (%d timeouts)", timeouts)
	}

	live, awake := sh.live.Load(), sh.awake.Load()
	rt.requestExit(p) // a stale second request
	rt.epochFast(oracle.Single{})
	if rt.Gone() != 1 || exits != 1 || rt.asleep.Load() != 0 || sh.live.Load() != live || sh.awake.Load() != awake {
		t.Fatalf("second exit of a gone process went through: gone=%d EvExit=%d asleep=%d live=%d→%d awake=%d→%d",
			rt.Gone(), exits, rt.asleep.Load(), live, sh.live.Load(), awake, sh.awake.Load())
	}
}

// TestComponentsMatchFrozenWorld is the property seal relies on: the
// union-find partition (components) equals the frozen world's
// PG().WeaklyConnectedComponents() — same sets, same order — on random
// states with gone and asleep processes, references to gone, unregistered
// and the holder's own process, and references in flight; at Start, and
// after a strike that ends in Reseal.
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
		if want := rt.freezeUnderPause().PG().WeaklyConnectedComponents(); !reflect.DeepEqual(rt.initially, want) {
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
