package parallel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"fdp/internal/core"
	"fdp/internal/graph"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// buildRuntime mirrors churn.Build for the concurrent runtime: a random
// connected topology of core.Proc processes with the given leavers.
func buildRuntime(n int, leaveFrac float64, seed int64, variant core.Variant, o Oracle) (*Runtime, []ref.Ref, ref.Set) {
	return buildShardedRuntime(n, leaveFrac, seed, variant, o, 0)
}

// buildShardedRuntime is buildRuntime with an explicit worker-shard count
// (shards <= 0 keeps the GOMAXPROCS default). On single-core machines the
// default collapses to one shard, so multi-shard code paths — cross-shard
// sends, per-shard pause ordering — need the explicit count.
func buildShardedRuntime(n int, leaveFrac float64, seed int64, variant core.Variant, o Oracle, shards int) (*Runtime, []ref.Ref, ref.Set) {
	rng := rand.New(rand.NewSource(seed))
	space := ref.NewSpace()
	nodes := space.NewN(n)
	g := graph.RandomConnected(nodes, n/2, rng)
	k := int(leaveFrac * float64(n))
	if k > n-1 {
		k = n - 1
	}
	leaving := ref.NewSet()
	for _, i := range rng.Perm(n)[:k] {
		leaving.Add(nodes[i])
	}
	rt := NewRuntime(o)
	if shards > 0 {
		rt.SetShards(shards)
	}
	procs := make(map[ref.Ref]*core.Proc, n)
	for _, r := range nodes {
		p := core.New(variant)
		procs[r] = p
		mode := sim.Staying
		if leaving.Has(r) {
			mode = sim.Leaving
		}
		rt.AddProcess(r, mode, p)
	}
	for _, e := range g.Edges() {
		mode := sim.Staying
		if leaving.Has(e.To) {
			mode = sim.Leaving
		}
		procs[e.From].SetNeighbor(e.To, mode)
	}
	return rt, nodes, leaving
}

func TestMailboxBatchPop(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	rt := NewRuntime(nil)
	rt.SetShards(1)
	rt.AddProcess(a, sim.Staying, &fixedRefsProto{})
	rt.AddProcess(b, sim.Staying, &fixedRefsProto{})
	sh, pa, pb := rt.shards[0], rt.lookup(a), rt.lookup(b)
	if p, _ := sh.nextBatch(4); p != nil {
		t.Fatal("empty run queue must not pop")
	}
	for _, label := range []string{"a1", "a2", "a3"} {
		rt.Enqueue(a, sim.NewMessage(label))
	}
	rt.Enqueue(b, sim.NewMessage("b1"))
	// A process with more mail than the batch goes back behind the others:
	// a, then b, then a again, each mailbox in FIFO order.
	var got []string
	for _, want := range []struct {
		p *proc
		k int
	}{{pa, 2}, {pb, 1}, {pa, 1}} {
		p, k := sh.nextBatch(2)
		if p != want.p || k != want.k {
			t.Fatalf("nextBatch = (%v, %d), want (%v, %d)", p, k, want.p, want.k)
		}
		for ; k > 0; k-- {
			m := p.mb.pop(&sh.free)
			got = append(got, m.Label)
		}
	}
	if want := []string{"a1", "a2", "b1", "a3"}; !slices.Equal(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
	if p, _ := sh.nextBatch(4); p != nil || pa.inRun || pb.inRun {
		t.Fatalf("drained shard still lists a runnable process (inRun %v %v)", pa.inRun, pb.inRun)
	}
	// A suspended process keeps its mail and is skipped until it is resumed.
	pa.exitPending.Store(true)
	rt.Enqueue(a, sim.NewMessage("held"))
	if p, _ := sh.nextBatch(4); p != nil {
		t.Fatal("a suspended process was handed out")
	}
	pa.exitPending.Store(false)
	sh.makeRunnable(pa) // what a denial at a pause does
	if p, k := sh.nextBatch(4); p != pa || k != 1 || pa.mb.pop(&sh.free).Label != "held" {
		t.Fatal("a resumed process did not get its held mail")
	}
	// A settled mailbox reuses its array: put and pop allocate nothing, and
	// a long queue reclaims its popped prefix instead of growing.
	m := sim.NewMessage("x")
	if allocs := testing.AllocsPerRun(100, func() {
		pa.mb.put(&m, &sh.free)
		pa.mb.put(&m, &sh.free)
		pa.mb.pop(&sh.free)
		pa.mb.pop(&sh.free)
	}); allocs != 0 {
		t.Fatalf("put/pop on a settled mailbox allocates (%.0f)", allocs)
	}
	for i := 0; i < 1000; i++ {
		pa.mb.put(&m, &sh.free)
		pa.mb.put(&m, &sh.free)
		pa.mb.pop(&sh.free)
	}
	if pa.mb.len() != 1000 || cap(pa.mb.queue) > 4096 {
		t.Fatalf("mailbox holds %d messages in an array of %d", pa.mb.len(), cap(pa.mb.queue))
	}
}

// Regression: close used to nil the queue, so any message still queued at
// close time vanished from terminal snapshots — in-flight references
// (implicit PG edges) silently dropped. A push after Stop is refused AND
// the queue already in place survives.
func TestMailboxPushAfterCloseRetainsQueue(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	rt := NewRuntime(nil)
	rt.AddProcess(a, sim.Staying, &fixedRefsProto{})
	rt.AddProcess(b, sim.Staying, &fixedRefsProto{})
	rt.Enqueue(b, sim.NewMessage("one", sim.RefInfo{Ref: a, Mode: sim.Staying}))
	rt.Enqueue(b, sim.NewMessage("two"))
	pb := rt.lookup(b)
	rt.Stop() // never started: closes the runtime with both messages queued
	late := sim.NewMessage("late")
	if rt.push(pb, &late) {
		t.Fatal("a stopped runtime must reject pushes")
	}
	if rt.Inject(b, late) {
		t.Fatal("a stopped runtime must reject Inject")
	}
	if got := pb.mb.len(); got != 2 {
		t.Fatalf("stopped runtime retained %d messages, want 2", got)
	}
	// The in-flight reference carried by the retained message must still be
	// an implicit PG edge of the terminal freeze.
	if w := rt.Freeze(); w.ChannelLen(b) != 2 || !w.PG().HasEdge(b, a) {
		t.Fatal("terminal freeze lost in-flight state of a stopped runtime")
	}
}

// The concurrent runtime must reach the same legitimate states as the
// sequential simulator: all leavers gone, staying processes connected.
func TestParallelFDPConvergence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rt, _, leaving := buildRuntime(16, 0.5, seed, core.VariantFDP, oracle.Single{})
		ok := rt.RunUntil(func(w *sim.World) bool {
			return w.Legitimate(sim.FDP)
		}, 2*time.Millisecond, 30*time.Second)
		if !ok {
			t.Fatalf("seed %d: no convergence (gone=%d of %d)", seed, rt.Gone(), leaving.Len())
		}
		if rt.Gone() != uint64(leaving.Len()) {
			t.Fatalf("seed %d: gone=%d want %d", seed, rt.Gone(), leaving.Len())
		}
		// Safety on the final snapshot.
		final := rt.freezeLocked()
		if !final.RelevantComponentsIntact() {
			t.Fatalf("seed %d: staying processes disconnected", seed)
		}
	}
}

func TestParallelFSPConvergence(t *testing.T) {
	rt, nodes, leaving := buildRuntime(12, 0.5, 7, core.VariantFSP, nil)
	ok := rt.RunUntil(func(w *sim.World) bool {
		return w.Legitimate(sim.FSP)
	}, 2*time.Millisecond, 30*time.Second)
	if !ok {
		t.Fatal("FSP did not converge concurrently")
	}
	if rt.Gone() != 0 {
		t.Fatal("FSP must not produce gone processes")
	}
	final := rt.freezeLocked()
	hib := final.Hibernating()
	for _, r := range nodes {
		if leaving.Has(r) && !hib.Has(r) {
			t.Fatalf("leaver %v not hibernating in final snapshot", r)
		}
	}
}

// TestAwakeCountsFollowLife: a shard's awake count is kept where life
// changes, from AddProcess on. Processes forced
// asleep before the run (one of them twice), then an FSP run on three shards
// in which leavers fall asleep and wake again: before and after, every shard
// counts exactly its awake processes, and the runtime its asleep ones.
func TestAwakeCountsFollowLife(t *testing.T) {
	rt, nodes, _ := buildShardedRuntime(24, 0.5, 5, core.VariantFSP, nil, 3)
	for _, r := range nodes[:6] {
		rt.ForceAsleep(r)
	}
	rt.ForceAsleep(nodes[0])
	check := func(when string) {
		t.Helper()
		var asleep int64
		for _, sh := range rt.shards {
			var awake int32
			for _, i := range sh.pids {
				switch rt.procs[i].life.Load() {
				case 0:
					awake++
				case 1:
					asleep++
				}
			}
			if got := sh.awake.Load(); got != awake {
				t.Fatalf("%s: shard %d counts %d awake processes, owns %d", when, sh.idx, got, awake)
			}
		}
		if got := rt.asleep.Load(); got != asleep {
			t.Fatalf("%s: runtime counts %d asleep processes, holds %d", when, got, asleep)
		}
	}
	check("before the run")
	if !rt.RunSeeded(5, func(w *sim.World) bool { return w.Legitimate(sim.FSP) }, time.Millisecond, 10*time.Second) {
		t.Fatal("FSP did not converge")
	}
	check("after the run")
}

// Exits must be validated: with the unsafe Always(true) oracle the
// validated-exit path still lets processes exit (no deadlock), while with
// Always(false) nobody ever exits.
func TestParallelExitValidation(t *testing.T) {
	rt, _, _ := buildRuntime(8, 0.4, 3, core.VariantFDP, oracle.Always(false))
	ok := rt.RunUntil(func(w *sim.World) bool {
		return w.Legitimate(sim.FDP)
	}, 2*time.Millisecond, 300*time.Millisecond)
	if ok || rt.Gone() != 0 {
		t.Fatal("Always(false) oracle must prevent all exits")
	}
}

func TestParallelSnapshotConsistency(t *testing.T) {
	rt, nodes, _ := buildRuntime(10, 0.3, 11, core.VariantFDP, oracle.Single{})
	rt.Start()
	defer rt.Stop()
	// Snapshots taken while the system runs must be internally consistent:
	// every edge endpoint resolves, and the world evaluates predicates
	// without panicking.
	stop := time.After(500 * time.Millisecond)
	for running := true; running; {
		select {
		case <-stop:
			running = false
		default:
		}
		w := rt.freezeLocked()
		pg := w.PG()
		for _, e := range pg.Edges() {
			if !pg.HasNode(e.From) || !pg.HasNode(e.To) {
				t.Fatal("dangling edge in snapshot")
			}
		}
		_ = w.RelevantComponentsIntact()
		_ = core.Phi(w)
	}
	_ = nodes
}

func TestParallelEventThroughputCounters(t *testing.T) {
	rt, _, _ := buildRuntime(8, 0.25, 5, core.VariantFDP, oracle.Single{})
	rt.Start()
	time.Sleep(50 * time.Millisecond)
	rt.Stop()
	if rt.Events() == 0 {
		t.Fatal("no events executed")
	}
	if rt.Sent() == 0 {
		t.Fatal("no messages sent")
	}
}

// fixedRefsProto stores an externally mutable reference slice and does
// nothing on its own. Mutation happens only via Runtime.Mutate (under the
// snapshot write lock), so tests stay race-free.
type fixedRefsProto struct{ refs []ref.Ref }

func (s *fixedRefsProto) Timeout(sim.Context)              {}
func (s *fixedRefsProto) Deliver(sim.Context, sim.Message) {}
func (s *fixedRefsProto) Refs() []ref.Ref                  { return s.refs }

// Regression for the freeze re-seal bug the differential harness flushed
// out: freezeUnderLock used to call SealInitialState on the snapshot itself,
// adopting any disconnection that had already happened as the reference
// partition — so RelevantComponentsIntact/StayingComponentsPreserved on
// frozen worlds were vacuously true and unsafe-oracle runs "converged
// legitimately". The frozen world must judge against the Start partition.
func TestFreezeJudgesAgainstStartComponents(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	pa := &fixedRefsProto{refs: []ref.Ref{b}}
	pb := &fixedRefsProto{refs: []ref.Ref{a}}
	rt := NewRuntime(nil)
	rt.AddProcess(a, sim.Staying, pa)
	rt.AddProcess(b, sim.Staying, pb)
	rt.Start()
	defer rt.Stop()

	// Corrupt the state without resealing: both stayers drop every
	// reference, splitting the single initial component in two.
	rt.Mutate(func(*MutableView) {
		pa.refs, pb.refs = nil, nil
	})

	w := rt.Freeze()
	if w.RelevantComponentsIntact() {
		t.Fatal("frozen world must judge Lemma 2 against the Start components, not its own re-seal")
	}
	if w.StayingComponentsPreserved() {
		t.Fatal("frozen world must see the staying-component split")
	}
}

// Mutate + Reseal is the fault-injection contract: after an explicit reseal
// the post-fault state becomes the new reference partition, so the same
// disconnection is no longer a violation.
func TestMutateResealAdoptsNewPartition(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	pa := &fixedRefsProto{refs: []ref.Ref{b}}
	pb := &fixedRefsProto{refs: []ref.Ref{a}}
	rt := NewRuntime(nil)
	rt.AddProcess(a, sim.Staying, pa)
	rt.AddProcess(b, sim.Staying, pb)
	rt.Start()
	defer rt.Stop()

	rt.Mutate(func(v *MutableView) {
		pa.refs, pb.refs = nil, nil
		v.Reseal()
	})

	if got := len(rt.InitialComponents()); got != 2 {
		t.Fatalf("reseal captured %d components, want 2", got)
	}
	if w := rt.Freeze(); !w.RelevantComponentsIntact() {
		t.Fatal("after reseal the split state is the new reference partition")
	}
}

// Regression for Stop() discarding in-flight state: messages still queued
// when the runtime stops must appear in post-Stop snapshots — they carry
// references (implicit PG edges) the terminal safety verdict depends on.
func TestStopRetainsInFlightMessages(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	rt := NewRuntime(nil)
	rt.AddProcess(a, sim.Staying, &fixedRefsProto{refs: []ref.Ref{b}})
	rt.AddProcess(b, sim.Staying, &fixedRefsProto{refs: []ref.Ref{a}})
	for i := 0; i < 3; i++ {
		rt.Enqueue(b, sim.NewMessage("pending"))
	}
	// Never started: all three messages are still in flight at Stop time.
	rt.Stop()
	w := rt.Freeze()
	if got := w.ChannelLen(b); got != 3 {
		t.Fatalf("post-Stop snapshot sees %d queued messages, want 3", got)
	}
	if got := w.Stats().TotalInQueue; got != 3 {
		t.Fatalf("post-Stop stats count %d in-flight messages, want 3", got)
	}
}

// undeliverableRecorder records transport-failure callbacks. It is only
// exercised single-threadedly in tests, so plain fields are fine.
type undeliverableRecorder struct {
	fixedRefsProto
	failed []ref.Ref
}

func (u *undeliverableRecorder) Undeliverable(_ sim.Context, to ref.Ref, _ sim.Message) {
	u.failed = append(u.failed, to)
}

// Sends to gone or unknown targets must count as sent AND dropped (simulator
// parity) and must invoke the sender's UndeliverableHandler within the same
// action, exactly like sim.procCtx.Send.
func TestSendToGoneCountsDropAndNotifies(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	rec := &undeliverableRecorder{}
	rt := NewRuntime(nil)
	rt.AddProcess(a, sim.Staying, rec)
	rt.AddProcess(b, sim.Staying, &fixedRefsProto{})
	rt.lookup(b).life.Store(2) // b is gone

	ctx := &pctx{p: rt.lookup(a)}
	ctx.Send(b, sim.NewMessage("x"))
	ctx.Send(space.New(), sim.NewMessage("y")) // unknown target
	ctx.Send(a, sim.NewMessage("z"))           // deliverable (self)

	if got := rt.Sent(); got != 3 {
		t.Fatalf("Sent=%d, want 3 (drops still count as sent)", got)
	}
	if got := rt.Dropped(); got != 2 {
		t.Fatalf("Dropped=%d, want 2", got)
	}
	if len(rec.failed) != 2 || rec.failed[0] != b {
		t.Fatalf("UndeliverableHandler saw %v, want [b, unknown]", rec.failed)
	}
	if got := rt.lookup(a).mb.len(); got != 1 {
		t.Fatalf("self-send not delivered: mailbox len %d", got)
	}
}

// TestUnknownAndHostileReferences holds the runtime's reference index to its
// boundary contract. A reference that names no live process of this runtime —
// ⊥, the negative and far-out-of-range identities ref.FromWire mints from
// whatever a peer put on the wire, a process that is gone — is answered, never
// indexed with: Inject and MutableView.Enqueue refuse it, Alive says no, a
// Send counts a drop and tells the sender (⊥ excepted: the model sends nothing
// to ⊥). The surfaces a scenario builder or fault injector names processes
// through fail with a diagnosis instead, as sim.World.mustProc does.
func TestUnknownAndHostileReferences(t *testing.T) {
	space := ref.NewSpace()
	a, gone := space.New(), space.New()
	rec := &undeliverableRecorder{}
	rt := NewRuntime(nil)
	rt.AddProcess(a, sim.Staying, rec)
	rt.AddProcess(gone, sim.Staying, &fixedRefsProto{})
	rt.lookup(gone).life.Store(2)

	negative := ref.FromWire(^uint32(4)) // wire identity -5
	cases := []struct {
		name     string
		r        ref.Ref
		dropped  bool // a Send to it is a counted, reported drop
		diagnose bool // builder surfaces panic "unknown process"
	}{
		{"nil", ref.Nil, false, true},
		{"negative", negative, true, true},
		{"past-the-end", ref.FromWire(1 << 30), true, true},
		{"gone", gone, true, false},
	}
	msg := sim.NewMessage("x", sim.RefInfo{Ref: a, Mode: sim.Staying})
	ctx := &pctx{p: rt.lookup(a)}
	for _, c := range cases {
		if rt.Inject(c.r, msg) {
			t.Errorf("%s: Inject(%v) accepted", c.name, c.r)
		}
		dropsBefore, failedBefore := rt.Dropped(), len(rec.failed)
		ctx.Send(c.r, msg)
		if got := rt.Dropped() - dropsBefore; (got == 1) != c.dropped {
			t.Errorf("%s: Send(%v) counted %d drops, want dropped=%v", c.name, c.r, got, c.dropped)
		}
		if got := rec.failed[failedBefore:]; (len(got) == 1 && got[0] == c.r) != c.dropped {
			t.Errorf("%s: Send(%v) reported %v undeliverable, want dropped=%v", c.name, c.r, got, c.dropped)
		}
		rt.Mutate(func(v *MutableView) {
			if v.Enqueue(c.r, msg) {
				t.Errorf("%s: MutableView.Enqueue(%v) accepted", c.name, c.r)
			}
			if v.Alive(c.r) {
				t.Errorf("%s: Alive(%v)", c.name, c.r)
			}
			if v.ChannelSnapshot(c.r) != nil {
				t.Errorf("%s: ChannelSnapshot(%v) has a channel", c.name, c.r)
			}
			for surface, call := range map[string]func(){
				"ModeOf":     func() { v.ModeOf(c.r) },
				"ProtocolOf": func() { v.ProtocolOf(c.r) },
			} {
				if got := panicOf(call); (got == "parallel: unknown process "+c.r.String()) != c.diagnose {
					t.Errorf("%s: MutableView.%s(%v) panicked with %q, want diagnosed=%v", c.name, surface, c.r, got, c.diagnose)
				}
			}
		})
		if !c.diagnose {
			continue
		}
		for surface, call := range map[string]func(){
			"Enqueue":     func() { rt.Enqueue(c.r, msg) },
			"ForceAsleep": func() { rt.ForceAsleep(c.r) },
		} {
			if got := panicOf(call); got != "parallel: unknown process "+c.r.String() {
				t.Errorf("%s: Runtime.%s(%v) panicked with %q, want the unknown-process diagnosis", c.name, surface, c.r, got)
			}
		}
	}
	if got := rt.lookup(a).mb.len(); got != 0 {
		t.Fatalf("%d messages reached a's mailbox, want none", got)
	}
}

// panicOf runs f and returns what it panicked with, rendered ("" if it did
// not panic).
func panicOf(f func()) (got string) {
	defer func() {
		if r := recover(); r != nil {
			got = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// The exit-validation contention stress: leaving processes with deliberately
// stale oracleOK=true caches race to exit while the SINGLE oracle actually
// forbids it (several stayers hold each leaver's reference). The judgement
// on the ledger row must deny every attempt: a stale cache can REQUEST an
// exit but never COMMIT one.
func TestValidateExitStaleCacheNeverCommits(t *testing.T) {
	space := ref.NewSpace()
	leavers := space.NewN(4)
	stayers := space.NewN(3)
	rt := NewRuntime(oracle.Single{})
	for _, l := range leavers {
		// Empty neighborhood: a core leaver with no refs asks the oracle on
		// every timeout and requests exit whenever the cache says yes.
		rt.AddProcess(l, sim.Leaving, core.New(core.VariantFDP))
	}
	for _, s := range stayers {
		// Each stayer pins every leaver: SINGLE's relevant degree is 3 >= 2,
		// so the honest oracle answer is always false.
		rt.AddProcess(s, sim.Staying, &fixedRefsProto{refs: append([]ref.Ref(nil), leavers...)})
	}
	rt.Start()

	// Adversarially re-prime the stale caches faster than the coordinator
	// can correct them, for a sustained burst of doomed exit attempts.
	stop := time.After(100 * time.Millisecond)
	reprime := time.NewTicker(20 * time.Microsecond)
	for running := true; running; {
		select {
		case <-stop:
			running = false
		case <-reprime.C:
			for _, l := range leavers {
				rt.lookup(l).oracleOK.Store(true)
			}
		}
	}
	reprime.Stop()
	rt.Stop()

	if got := rt.Gone(); got != 0 {
		t.Fatalf("%d unsafe exits committed despite failing oracle", got)
	}
	if rt.ExitDenied() == 0 {
		t.Fatal("no exit attempt was ever denied — the stale caches never reached a verdict")
	}
	// Deterministic direct check on the terminal state, independent of the
	// race timing above: the sealed-snapshot path denies it too.
	p := rt.lookup(leavers[0])
	p.oracleOK.Store(true)
	rt.pauseAll()
	committed := rt.validateExitOn(rt.freezeUnderPause(), p)
	rt.resumeAll()
	if committed {
		t.Fatal("validateExitOn committed an exit the oracle forbids")
	}
}

// TestPauseStartsOneShardFurtherEachTime pins pauseAll's rotation. The shard
// locked first stands still while the pauser waits for the others, so a fixed
// order makes one shard pay every pause (see pauseAll). A read hold on the
// second shard of the expected order plays a worker in mid-iteration: the
// pauser must by then hold the first shard and must not have touched the
// third.
func TestPauseStartsOneShardFurtherEachTime(t *testing.T) {
	rt := NewRuntime(nil)
	rt.SetShards(3)
	for j := 0; j < 6; j++ {
		if rt.pauseFirst != j%3 {
			t.Fatalf("pause %d would start at shard %d, want %d", j, rt.pauseFirst, j%3)
		}
		first, second, third := rt.shards[j%3], rt.shards[(j+1)%3], rt.shards[(j+2)%3]
		second.actMu.RLock()
		paused := make(chan struct{})
		go func() {
			rt.pauseAll()
			close(paused)
		}()
		deadline := time.Now().Add(10 * time.Second)
		for first.actMu.TryRLock() {
			first.actMu.RUnlock()
			if time.Now().After(deadline) {
				t.Fatalf("pause %d never took shard %d", j, first.idx)
			}
			runtime.Gosched()
		}
		if !third.actMu.TryRLock() {
			t.Fatalf("pause %d reached shard %d before shard %d", j, third.idx, second.idx)
		}
		third.actMu.RUnlock()
		second.actMu.RUnlock()
		<-paused
		rt.resumeAll()
	}
}

func TestParallelDuplicatePanics(t *testing.T) {
	rt := NewRuntime(nil)
	r := ref.NewSpace().New()
	rt.AddProcess(r, sim.Staying, core.New(core.VariantFDP))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddProcess must panic")
		}
	}()
	rt.AddProcess(r, sim.Staying, core.New(core.VariantFDP))
}
