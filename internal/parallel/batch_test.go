package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// countingProto counts its deliveries and does nothing else: no sends, no
// sleep, no exit. Every injected message must surface here exactly once.
type countingProto struct{ delivered *atomic.Uint64 }

func (c *countingProto) Timeout(sim.Context)              {}
func (c *countingProto) Deliver(sim.Context, sim.Message) { c.delivered.Add(1) }
func (c *countingProto) Refs() []ref.Ref                  { return nil }

// Batched mailbox drain must not lose or duplicate messages while Enqueue
// races the worker's delivery rounds. Four injector goroutines push
// through the pause-the-world Mutate path (serialized against the shard
// rounds) while the workers drain in popBatch-sized chunks; the
// delivery counter must land exactly on the injected total and every
// mailbox must end empty.
func TestBatchDrainUnderConcurrentEnqueue(t *testing.T) {
	const procs, injectors, perInjector = 8, 4, 500

	var delivered atomic.Uint64
	space := ref.NewSpace()
	nodes := space.NewN(procs)
	rt := NewRuntime(nil)
	rt.SetShards(3)
	for _, r := range nodes {
		rt.AddProcess(r, sim.Staying, &countingProto{delivered: &delivered})
	}
	rt.Start()
	defer rt.Stop()

	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perInjector; i++ {
				to := nodes[(g*perInjector+i)%len(nodes)]
				rt.Mutate(func(v *MutableView) {
					if !v.Enqueue(to, sim.NewMessage("inject")) {
						t.Errorf("enqueue to live process %v refused", to)
					}
				})
			}
		}(g)
	}
	wg.Wait()

	const want = injectors * perInjector
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != want {
		t.Fatalf("delivered %d of %d injected messages", got, want)
	}
	if got := rt.KindCount(sim.EvDeliver); got != want {
		t.Fatalf("deliver event counter %d, want %d", got, want)
	}
	for i, depth := range rt.MailboxDepths() {
		if depth != 0 {
			t.Fatalf("mailbox %d still holds %d messages after full drain", i, depth)
		}
	}
}

// Freeze and Mutate pause the world, alternately, a fixed number of times
// while actions fire on three shards, however soon the world converges:
// stayers keep timing out after the last exit, and every pause waits for
// an action to run after the one before it. Under -race this doubles as the
// memory-safety check; here we also assert the causal-ID ledger survives:
// no event is dropped or double-recorded across a pause, and the runtime
// still converges.
func TestPausesKeepCausalIDsUnique(t *testing.T) {
	const pauses = 120
	rt, _, leaving := buildShardedRuntime(24, 0.4, 17, core.VariantFDP, oracle.Single{}, 3)
	log := &eventLog{}
	rt.AddEventHook(log.record)
	rt.Start()

	deadline := time.Now().Add(20 * time.Second)
	taken, between := 0, 0
	for taken < pauses && time.Now().Before(deadline) {
		if taken%2 == 0 {
			rt.Freeze()
		} else {
			rt.Mutate(func(*MutableView) {})
		}
		taken++
		at := rt.Events()
		for rt.Events() == at && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		if rt.Events() > at {
			between++
		}
	}
	for rt.Gone() < uint64(leaving.Len()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	if taken != pauses || between != pauses {
		t.Fatalf("took %d of %d pauses, %d of them followed by an action", taken, pauses, between)
	}
	if rt.Gone() != uint64(leaving.Len()) {
		t.Fatalf("runtime settled %d of %d leavers under pause pressure", rt.Gone(), leaving.Len())
	}

	final := log.snapshot()
	if total := kindTotal(rt); uint64(len(final)) != total {
		t.Fatalf("trace retained %d events, per-kind counters saw %d (a pause dropped or duplicated events)", len(final), total)
	}
	high := rt.CausalIDs()
	seen := make(map[uint64]bool, len(final))
	for _, e := range final {
		if e.CID == 0 || e.CID > high {
			t.Fatalf("event CID %d out of range (0, %d]", e.CID, high)
		}
		if seen[e.CID] {
			t.Fatalf("duplicated causal ID %d across pauses", e.CID)
		}
		seen[e.CID] = true
	}
}

// Multi-shard FDP convergence: on a single-core machine the default shard
// count is one, so this pins the cross-shard send/validate paths with an
// explicit worker pool.
func TestShardedFDPConvergence(t *testing.T) {
	for _, shards := range []int{2, 4} {
		rt, _, leaving := buildShardedRuntime(20, 0.5, int64(shards), core.VariantFDP, oracle.Single{}, shards)
		if rt.Shards() != shards {
			t.Fatalf("SetShards(%d) built %d shards", shards, rt.Shards())
		}
		ok := rt.RunUntil(func(w *sim.World) bool {
			return w.Legitimate(sim.FDP)
		}, 2*time.Millisecond, 30*time.Second)
		if !ok {
			t.Fatalf("%d shards: no convergence (gone=%d of %d)", shards, rt.Gone(), leaving.Len())
		}
		final := rt.Freeze()
		if !final.RelevantComponentsIntact() {
			t.Fatalf("%d shards: staying processes disconnected", shards)
		}
	}
}

// Multi-shard FSP convergence: hibernation (zero exits) across an explicit
// worker pool, including the awake-counter bookkeeping that gates worker
// sleep.
func TestShardedFSPConvergence(t *testing.T) {
	rt, nodes, leaving := buildShardedRuntime(16, 0.5, 9, core.VariantFSP, nil, 3)
	ok := rt.RunUntil(func(w *sim.World) bool {
		return w.Legitimate(sim.FSP)
	}, 2*time.Millisecond, 30*time.Second)
	if !ok {
		t.Fatal("sharded FSP did not converge")
	}
	if rt.Gone() != 0 {
		t.Fatal("FSP must not produce gone processes")
	}
	final := rt.Freeze()
	hib := final.Hibernating()
	for _, r := range nodes {
		if leaving.Has(r) && !hib.Has(r) {
			t.Fatalf("leaver %v not hibernating in sharded final snapshot", r)
		}
	}
}

// TestSettledActionsAllocateNothing is the runtime's share of the
// allocation-free action path (internal/core holds the protocol's and the
// sequential engine's): with the degree ledger on and every mailbox, run
// queue, outbox and inbox buffer already grown to what a round needs, the
// timeout of a settled staying process and the deliveries of the
// self-introductions it sent allocate nothing — a send finds its target by
// index, the message carries the sender's one shared list, and an unchanged
// Refs costs syncRefs one comparison. On two shards half the introductions
// cross: a flush hands the outbox array over whole and takes back one an
// earlier absorb drained, and a drained mailbox lends its array to the next.
func TestSettledActionsAllocateNothing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		space := ref.NewSpace()
		nodes := space.NewN(6)
		rt := NewRuntime(oracle.Single{})
		rt.SetShards(shards)
		for i, r := range nodes {
			p := core.New(core.VariantFDP)
			for j, v := range nodes {
				if i != j {
					p.SetNeighbor(v, sim.Staying)
				}
			}
			rt.AddProcess(r, sim.Staying, p)
		}
		leaver := core.New(core.VariantFDP)
		leaver.SetAnchor(nodes[0], sim.Staying)
		rt.AddProcess(space.New(), sim.Leaving, leaver)
		rt.seal()
		if rt.jd == nil {
			t.Fatal("Single must enable degree tracking")
		}
		p := rt.lookup(nodes[0])
		own := p.sh
		round := func() {
			p.timeoutAction(own)
			own.flushAll()
			delivered := 0
			for _, sh := range rt.shards {
				delivered += sh.deliverRound()
				sh.flushAll()
			}
			if delivered != len(nodes)-1 {
				t.Fatalf("shards=%d: round delivered %d messages, want %d", shards, delivered, len(nodes)-1)
			}
		}
		// Three arrays circulate per sender and target: one in the outbox,
		// one in the inbox, one drained; the third round fills the last.
		for i := 0; i < 3; i++ {
			round()
		}
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Fatalf("shards=%d: one timeout and its %d deliveries allocate %.0f times", shards, len(nodes)-1, n)
		}
		if shards > 1 && rt.ShardTraffic(own.idx).OutboxMessages == 0 {
			t.Fatal("no introduction crossed shards")
		}
	}
}
