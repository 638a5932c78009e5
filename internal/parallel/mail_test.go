package parallel

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// This file holds the tests of the private-mailbox plumbing (DESIGN.md §12):
// a message is in flight from the moment it is admitted, in an outbox, an
// inbox or a mailbox, and a pauser finds every one of them in a mailbox.

// TestInFlightConservation pauses a running multi-shard churn three times
// at once, then at random instants, and holds the pause to its promise. Every outbox is empty (workers
// flush before they unlock), every inbox is empty (pauseAll absorbed them),
// so each live process's mailbox holds exactly what its depth
// counter says was admitted and not delivered, and the frozen world's channel
// is that mailbox. With every in-flight reference in a mailbox the degree
// ledger must read exactly the frozen relevant degree — the crosscheck of
// TestIncrementalDegreeMatchesFrozenWorld, here with most sends crossing
// shards, and with every delivery's debt settled: replies that took their
// delivered message's pair over must have happened, on every shard count
// (two is the count CI's runners get by default). After Stop the
// depth-reading surfaces agree with the counter too.
func TestInFlightConservation(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		rt, _, leaving := buildShardedRuntime(2048, 0.5, int64(90+shards), core.VariantFDP, oracle.Single{}, shards)
		rng := rand.New(rand.NewSource(int64(shards)))
		rt.Start()
		deadline := time.Now().Add(30 * time.Second)
		checks, queued := 0, 0
		for rt.Gone() < uint64(leaving.Len()) && time.Now().Before(deadline) {
			// The first three pauses come at once: on a loaded host a
			// sleep can outlast the whole run.
			if checks >= 3 {
				time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
			}
			rt.pauseAll()
			checks++
			for _, sh := range rt.shards {
				for k, out := range sh.outbox {
					if len(out) != 0 {
						t.Errorf("shards=%d: paused with %d messages in shard %d's outbox for shard %d", shards, len(out), sh.idx, k)
					}
				}
				if len(sh.inbox) != 0 || sh.inboxFull.Load() {
					t.Errorf("shards=%d: paused with shard %d's inbox holding %d messages (flag %v)",
						shards, sh.idx, len(sh.inbox), sh.inboxFull.Load())
				}
			}
			w := rt.freezeUnderPause()
			for _, p := range rt.procs {
				if p == nil || p.life.Load() == 2 {
					continue
				}
				depth := int(p.depth.Load())
				queued += depth
				if p.mb.len() != depth || w.ChannelLen(p.id) != depth {
					t.Errorf("shards=%d: %v has depth %d, mailbox %d, frozen channel %d",
						shards, p.id, depth, p.mb.len(), w.ChannelLen(p.id))
				}
				if p.mode != sim.Leaving {
					continue
				}
				want, _ := w.RelevantDegree(p.id)
				if got := rt.ledger.Degree(p.id); got != want {
					t.Errorf("shards=%d: leaver %v incremental degree %d, frozen world says %d", shards, p.id, got, want)
				}
			}
			rt.resumeAll()
			// The latency buffers are the workers' own, read at a pause.
			if lat := len(rt.ExitLatencies()); uint64(lat) > rt.Gone() {
				t.Errorf("shards=%d: %d exit stamps, %d exits", shards, lat, rt.Gone())
			}
			if t.Failed() {
				break
			}
		}
		rt.Stop()
		if t.Failed() {
			return
		}
		if rt.Gone() != uint64(leaving.Len()) {
			t.Fatalf("shards=%d: only %d/%d exits", shards, rt.Gone(), leaving.Len())
		}
		if checks < 3 || queued == 0 {
			t.Fatalf("shards=%d: %d pauses saw %d queued messages; the property was not exercised", shards, checks, queued)
		}
		var crossed, absorbed, handoffs uint64
		for i := range rt.shards {
			tr := rt.ShardTraffic(i)
			if tr.OutboxFlushes > tr.OutboxMessages {
				t.Fatalf("shards=%d: shard %d counts %d flushes of %d messages", shards, i, tr.OutboxFlushes, tr.OutboxMessages)
			}
			crossed += tr.OutboxMessages
			absorbed += tr.InboxAbsorbs
			handoffs += tr.PairHandoffs
		}
		if crossed == 0 || absorbed == 0 {
			t.Fatalf("shards=%d: %d messages crossed shards, %d absorbs: nothing crossed", shards, crossed, absorbed)
		}
		if handoffs == 0 {
			t.Fatalf("shards=%d: no delivery handed its ledger pair to a reply or a store", shards)
		}
		// The terminal state: same agreement through the public surfaces.
		depths := rt.MailboxDepths()
		i := 0
		rt.Mutate(func(v *MutableView) {
			for _, p := range rt.procs {
				if p == nil || p.life.Load() == 2 {
					continue
				}
				want := int(p.depth.Load())
				if depths[i] != want || len(v.ChannelSnapshot(p.id)) != want {
					t.Errorf("shards=%d: %v depth counter %d, MailboxDepths %d, ChannelSnapshot %d",
						shards, p.id, want, depths[i], len(v.ChannelSnapshot(p.id)))
				}
				i++
			}
		})
	}
}

// TestForcedShardChurn is the churn `make race` relies on: CI runners have
// two cores, and without SetShards two shards is all that ever runs. Four
// shards, four concurrent readers of the summed counters (which must never go
// backwards), then the identities the per-shard counters must keep once the
// workers are gone: every send was admitted or dropped, every action was a
// timeout or a delivery.
func TestForcedShardChurn(t *testing.T) {
	rt, _, leaving := buildShardedRuntime(1024, 0.5, 23, core.VariantFDP, oracle.Single{}, 4)
	rt.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var events, sent, dropped, delivers uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, s, d, k := rt.Events(), rt.Sent(), rt.Dropped(), rt.KindCount(sim.EvDeliver)
				if e < events || s < sent || d < dropped || k < delivers {
					t.Errorf("a summed counter went backwards: events %d→%d sent %d→%d dropped %d→%d delivers %d→%d",
						events, e, sent, s, dropped, d, delivers, k)
					return
				}
				events, sent, dropped, delivers = e, s, d, k
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	deadline := time.Now().Add(60 * time.Second)
	for rt.Gone() < uint64(leaving.Len()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	close(stop)
	wg.Wait()
	if rt.Gone() != uint64(leaving.Len()) {
		t.Fatalf("only %d/%d exits on four shards", rt.Gone(), leaving.Len())
	}
	kinds := rt.KindCount
	if got, want := rt.Sent(), kinds(sim.EvSend)+kinds(sim.EvDrop); got != want {
		t.Fatalf("Sent = %d, send + drop events = %d", got, want)
	}
	if got, want := rt.Events(), kinds(sim.EvTimeout)+kinds(sim.EvDeliver); got != want {
		t.Fatalf("Events = %d, timeout + deliver events = %d", got, want)
	}
	if rt.Dropped() != kinds(sim.EvDrop) || kinds(sim.EvExit) != rt.Gone() {
		t.Fatalf("Dropped = %d with %d drop events, Gone = %d with %d exit events",
			rt.Dropped(), kinds(sim.EvDrop), rt.Gone(), kinds(sim.EvExit))
	}
	final := rt.Freeze()
	if !final.RelevantComponentsIntact() || !final.Legitimate(sim.FDP) {
		t.Fatal("four-shard churn ended unsafe or not legitimate")
	}
	if got := uint64(final.Stats().TotalInQueue); got != kinds(sim.EvSend)-kinds(sim.EvDeliver)-lostWithTheGone(rt) {
		t.Fatalf("%d messages queued at the end, want admitted − delivered − left with the gone = %d",
			got, kinds(sim.EvSend)-kinds(sim.EvDeliver)-lostWithTheGone(rt))
	}
}

// lostWithTheGone counts the messages admitted to processes that exited
// before delivering them (Stop has absorbed every inbox).
func lostWithTheGone(rt *Runtime) uint64 {
	var n uint64
	for _, p := range rt.procs {
		if p != nil && p.life.Load() == 2 {
			n += uint64(p.mb.len())
		}
	}
	return n
}

// twoShardPair builds a two-shard runtime by hand with one process on each
// shard, for tests that play both workers themselves.
func twoShardPair(t testing.TB, o Oracle, modeB sim.Mode, protoA, protoB sim.Protocol) (rt *Runtime, a, b *proc) {
	t.Helper()
	space := ref.NewSpace()
	ra, rb := space.New(), space.New()
	rt = NewRuntime(o)
	rt.SetShards(2)
	rt.AddProcess(ra, sim.Staying, protoA)
	rt.AddProcess(rb, modeB, protoB)
	a, b = rt.lookup(ra), rt.lookup(rb)
	if a.sh == b.sh {
		t.Fatal("the pair shares a shard")
	}
	return rt, a, b
}

// TestEventDepthIsTheChannelLength pins Event.Depth to the model's channel
// length, not to where the engine keeps the messages: three sends to a
// process of another shard read 1, 2, 3 while all three still sit in the
// sender's outbox, and their deliveries read 2, 1, 0.
func TestEventDepthIsTheChannelLength(t *testing.T) {
	rt, a, b := twoShardPair(t, nil, sim.Staying, &fixedRefsProto{}, &fixedRefsProto{})
	var sends, delivers []int
	rt.AddEventHook(func(e sim.Event) {
		switch e.Kind {
		case sim.EvSend:
			sends = append(sends, e.Depth)
		case sim.EvDeliver:
			delivers = append(delivers, e.Depth)
		}
	})
	rt.seal()
	sha, shb := a.sh, b.sh
	for i := 0; i < 3; i++ {
		a.ctx.Send(b.id, sim.NewMessage("m"))
	}
	if b.mb.len() != 0 || len(sha.outbox[shb.idx]) != 3 || b.depth.Load() != 3 {
		t.Fatalf("after three sends: mailbox %d, outbox %d, depth %d; want 0, 3, 3",
			b.mb.len(), len(sha.outbox[shb.idx]), b.depth.Load())
	}
	sha.flushAll()
	if got := shb.deliverRound(); got != 3 {
		t.Fatalf("delivered %d of 3", got)
	}
	if want := []int{1, 2, 3}; !slices.Equal(sends, want) {
		t.Fatalf("EvSend depths %v, want %v", sends, want)
	}
	if want := []int{2, 1, 0}; !slices.Equal(delivers, want) {
		t.Fatalf("EvDeliver depths %v, want %v", delivers, want)
	}
	if tr := rt.ShardTraffic(sha.idx); tr.OutboxFlushes != 1 || tr.OutboxMessages != 3 {
		t.Fatalf("sender's traffic %+v, want one flush of three", tr)
	}
	if tr := rt.ShardTraffic(shb.idx); tr.InboxAbsorbs != 1 {
		t.Fatalf("receiver's traffic %+v, want one absorb", tr)
	}
}

// TestDeniedExiterResumesThroughTheInbox: a message that crossed shards,
// through the inbox, while the leaver was suspended waits in its mailbox,
// unlisted. The epoch denies the exit at a pause, which hands it the run
// queue: the denial lists the leaver there directly, leaves the inbox empty,
// and the worker's next round delivers.
func TestDeniedExiterResumesThroughTheInbox(t *testing.T) {
	rt, a, l := twoShardPair(t, oracle.Always(false), sim.Leaving, &fixedRefsProto{}, &fixedRefsProto{})
	rt.seal()
	sha, shl := a.sh, l.sh
	l.exitPending.Store(true)
	rt.requestExit(l)
	a.ctx.Send(l.id, sim.NewMessage("while suspended"))
	sha.flushAll()
	if got := shl.deliverRound(); got != 0 || l.mb.len() != 1 || l.inRun {
		t.Fatalf("suspended leaver: %d delivered, %d queued, inRun=%v; want 0, 1, false", got, l.mb.len(), l.inRun)
	}
	rt.epoch()
	if rt.ExitDenied() != 1 || l.exitPending.Load() {
		t.Fatalf("exit not denied: denied=%d pending=%v", rt.ExitDenied(), l.exitPending.Load())
	}
	if !slices.Equal(shl.runq[shl.rqHead:], []int32{int32(ref.Index(l.id))}) || !l.inRun || shl.inboxFull.Load() {
		t.Fatalf("after the denial: run queue %v, inRun=%v, inbox flag %v; want the leaver listed, the inbox empty",
			shl.runq[shl.rqHead:], l.inRun, shl.inboxFull.Load())
	}
	if got := shl.deliverRound(); got != 1 || l.mb.len() != 0 {
		t.Fatalf("resumed leaver: %d delivered, %d still queued", got, l.mb.len())
	}
}

// burst sends more than flushAt messages to one process of another shard per
// delivery, and notes, before its handler returns, whether that shard's inbox
// has anything in it.
type burst struct {
	fixedRefsProto
	rt       *Runtime
	to       ref.Ref
	midInbox bool
}

func (b *burst) Deliver(ctx sim.Context, _ sim.Message) {
	for i := 0; i <= flushAt; i++ {
		ctx.Send(b.to, sim.NewMessage("burst", sim.RefInfo{Ref: ctx.Self(), Mode: sim.Staying}))
	}
	b.midInbox = InboxFull(b.rt, b.to)
}

// TestOutboxWaitsForTheActionToEnd pins the flush rule the reply handoff
// relies on (degree.go): an outbox that reaches flushAt inside an action is
// published after the action, never inside it, so no worker can pop a reply
// before the action that sent it has done its ledger accounting. The handler
// sends flushAt+1 messages to another shard; the target's inbox is empty
// while it runs, and holds all of them once the action has returned — before
// the end of the iteration, where the worker flushes the rest.
func TestOutboxWaitsForTheActionToEnd(t *testing.T) {
	b := &burst{}
	rt, a, l := twoShardPair(t, oracle.Single{}, sim.Leaving, b, &fixedRefsProto{})
	b.rt, b.to = rt, l.id
	rt.seal()
	sha, shl := a.sh, l.sh
	rt.push(a, &sim.Message{Label: "go"})
	if got := sha.deliverRound(); got != 1 {
		t.Fatalf("delivered %d of 1", got)
	}
	if b.midInbox {
		t.Fatal("the target's inbox filled while the handler was still running")
	}
	inbox := 0
	for _, batch := range shl.inbox {
		inbox += len(batch)
	}
	if !InboxFull(rt, l.id) || inbox != flushAt+1 || len(sha.outbox[shl.idx]) != 0 {
		t.Fatalf("after the action: inbox %d, outbox %d; want the burst published between actions",
			inbox, len(sha.outbox[shl.idx]))
	}
	if tr := rt.ShardTraffic(sha.idx); tr.OutboxFlushes != 1 || tr.OutboxMessages != flushAt+1 {
		t.Fatalf("sender's traffic %+v, want one flush of the whole burst", tr)
	}
}

// alwaysExit asks to exit at every timeout, whatever its mode and whatever
// the oracle says.
type alwaysExit struct{ fixedRefsProto }

func (*alwaysExit) Timeout(ctx sim.Context) { ctx.Exit() }

// exitWhenAllowed keeps its references and exits once the oracle agrees.
type exitWhenAllowed struct{ fixedRefsProto }

func (*exitWhenAllowed) Timeout(ctx sim.Context) {
	if ctx.OracleSays() {
		ctx.Exit()
	}
}

// TestStayerExitIsSettledOnASnapshot is the regression for a coordinator
// crash: the degree ledger keeps a row per leaver, and a staying process
// whose protocol calls Exit under SINGLE sent the epoch into the nil row. The
// model does not forbid that exit and the sequential engine commits it. The
// runtime validates it on a sealed snapshot and rebuilds the ledger under the
// same pause: the leaver here holds the stayer and one more process, so
// SINGLE grants it only once the gone stayer is off its row.
func TestStayerExitIsSettledOnASnapshot(t *testing.T) {
	build := func(add func(r ref.Ref, mode sim.Mode, p sim.Protocol)) {
		space := ref.NewSpace()
		stayer, leaver, other := space.New(), space.New(), space.New()
		add(stayer, sim.Staying, &alwaysExit{})
		add(leaver, sim.Leaving, &exitWhenAllowed{fixedRefsProto{refs: []ref.Ref{stayer, other}}})
		add(other, sim.Staying, &fixedRefsProto{})
	}

	w := sim.NewWorld(oracle.Single{})
	build(w.AddProcess)
	w.SealInitialState()
	for step := 0; step < 64 && w.Stats().Exits < 2; step++ {
		w.Execute(w.PickEnabled(step % w.EnabledCount()))
	}
	if got := w.Stats().Exits; got != 2 {
		t.Fatalf("sequential engine: %d gone, want the stayer and the leaver", got)
	}

	rt := NewRuntime(oracle.Single{})
	rt.SetShards(2)
	build(rt.AddProcess)
	rt.Start()
	deadline := time.Now().Add(20 * time.Second)
	for rt.Gone() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	if got := rt.Gone(); got != 2 {
		t.Fatalf("runtime: %d gone, want the stayer and the leaver", got)
	}
}

// TestDrainedMailboxLendsItsArray pins the mailbox free list: a mailbox
// that drains hands its array to its shard, and the next empty mailbox of
// that shard to take a message takes that array, so putting a message into
// a mailbox that never held one allocates nothing once another has drained.
func TestDrainedMailboxLendsItsArray(t *testing.T) {
	const n = 102
	nodes := ref.NewSpace().NewN(n)
	rt := NewRuntime(nil)
	rt.SetShards(1)
	for _, r := range nodes {
		rt.AddProcess(r, sim.Staying, &fixedRefsProto{})
	}
	rt.seal()
	sh, first := rt.shards[0], rt.lookup(nodes[0])
	m := sim.NewMessage("m")
	sh.enqueue(first, &m)
	array := &first.mb.queue[0]
	if got := sh.deliverRound(); got != 1 || first.mb.queue != nil {
		t.Fatalf("delivered %d of 1, drained mailbox keeps %d slots", got, cap(first.mb.queue))
	}
	next := 1
	allocs := testing.AllocsPerRun(n-2, func() {
		p := rt.lookup(nodes[next])
		next++
		sh.enqueue(p, &m)
		if &p.mb.queue[0] != array {
			t.Fatalf("%v's first message is not in the drained array", p.id)
		}
		if got := sh.deliverRound(); got != 1 {
			t.Fatalf("delivered %d of 1", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("a message to an empty mailbox and its delivery allocate %.0f times", allocs)
	}
}

// TestExitStampsFillTheirSealedRoom: seal gives each shard room for one
// exit stamp per leaver dealt to it, so a run in which every leaver exits
// fills each shard's exitLat to exactly that room and never regrows it.
func TestExitStampsFillTheirSealedRoom(t *testing.T) {
	for _, shards := range []int{2, 3} {
		rt, _, leaving := buildShardedRuntime(90, 0.5, 5, core.VariantFDP, oracle.Single{}, shards)
		if !rt.RunSeeded(5, func(w *sim.World) bool { return w.Legitimate(sim.FDP) }, time.Millisecond, 10*time.Second) {
			t.Fatalf("shards=%d: the run did not converge", shards)
		}
		dealt := make([]int, shards)
		for _, r := range leaving.Sorted() {
			dealt[rt.lookup(r).sh.idx]++
		}
		for i, sh := range rt.shards {
			if len(sh.exitLat) != dealt[i] || cap(sh.exitLat) != dealt[i] {
				t.Fatalf("shards=%d: shard %d stamped %d exits in room for %d, %d leavers dealt to it",
					shards, i, len(sh.exitLat), cap(sh.exitLat), dealt[i])
			}
		}
	}
}

// TestDrainedBatchComesBackToASender pins the cross-shard handover: flush
// hands the outbox array itself to the target's inbox and takes back one
// the target's absorb drained, so a sender fills an array it handed over
// rounds before, and a settled round of sends, flush, absorb and
// deliveries allocates nothing.
func TestDrainedBatchComesBackToASender(t *testing.T) {
	rt, a, l := twoShardPair(t, nil, sim.Staying, &fixedRefsProto{}, &fixedRefsProto{})
	rt.seal()
	sha, shl := a.sh, l.sh
	m := sim.NewMessage("m")
	round := func() (batch *parcel) {
		for i := 0; i < 3; i++ {
			a.ctx.Send(l.id, m)
		}
		batch = &sha.outbox[shl.idx][0]
		sha.flushAll()
		if len(shl.inbox) != 1 || &shl.inbox[0][0] != batch {
			t.Fatal("the inbox does not hold the sender's batch itself")
		}
		if got := shl.deliverRound(); got != 3 {
			t.Fatalf("delivered %d of 3", got)
		}
		return batch
	}
	var sent []*parcel
	for i := 0; i < 6; i++ {
		sent = append(sent, round())
	}
	for k := 3; k < len(sent); k++ {
		if sent[k] == sent[k-1] || !slices.Contains(sent[:k-1], sent[k]) {
			t.Fatalf("round %d filled array %p after %p; want one handed over rounds before", k, sent[k], sent[k-1])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { round() }); allocs != 0 {
		t.Fatalf("a settled cross-shard round allocates %.0f times", allocs)
	}
}
