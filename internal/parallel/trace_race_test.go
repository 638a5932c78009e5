package parallel

import (
	"sync"
	"testing"
	"time"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// eventLog is the tests' event consumer: a locked slice attached through
// AddEventHook (package parallel cannot import trace.Flight: trace →
// faults → parallel). It keeps everything, so a missing CID means a
// dropped event.
type eventLog struct {
	mu  sync.Mutex
	evs []sim.Event
}

func (l *eventLog) record(e sim.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, e)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []sim.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sim.Event(nil), l.evs...)
}

// kindTotal sums KindCount over every event kind: what a log that kept
// every event must hold.
func kindTotal(rt *Runtime) uint64 {
	var total uint64
	for k := 0; k < sim.NumEventKinds; k++ {
		total += rt.KindCount(sim.EventKind(k))
	}
	return total
}

// TestTraceCausalIDsConcurrentReads hammers a hook-fed event log from
// several goroutines while actions fire, under -race: every observed
// snapshot must be internally consistent — no duplicated causal IDs — and
// the final log must account for every emitted event (per-kind counters)
// with unique, in-range CIDs and per-process non-decreasing Step stamps.
func TestTraceCausalIDsConcurrentReads(t *testing.T) {
	rt, _, leaving := buildRuntime(24, 0.4, 11, core.VariantFDP, oracle.Single{})
	log := &eventLog{}
	rt.AddEventHook(nil) // ignored, like World.AddEventHook(nil)
	rt.AddEventHook(log.record)
	rt.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := log.snapshot()
				seen := make(map[uint64]bool, len(evs))
				for _, e := range evs {
					if e.CID == 0 {
						t.Error("event without causal ID in live snapshot")
						return
					}
					if seen[e.CID] {
						t.Errorf("duplicated causal ID %d in live snapshot", e.CID)
						return
					}
					seen[e.CID] = true
				}
			}
		}()
	}

	deadline := time.Now().Add(15 * time.Second)
	for rt.Gone() < uint64(leaving.Len()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	close(stop)
	wg.Wait()
	if rt.Gone() != uint64(leaving.Len()) {
		t.Fatalf("runtime settled %d of %d leavers", rt.Gone(), leaving.Len())
	}

	final := log.snapshot()
	if total := kindTotal(rt); uint64(len(final)) != total {
		t.Fatalf("trace retained %d events, per-kind counters saw %d (dropped or duplicated events)", len(final), total)
	}
	high := rt.CausalIDs()
	seen := make(map[uint64]bool, len(final))
	lastStep := make(map[ref.Ref]int)
	for _, e := range final {
		if e.CID == 0 || e.CID > high {
			t.Fatalf("event CID %d out of range (0, %d]", e.CID, high)
		}
		if seen[e.CID] {
			t.Fatalf("duplicated causal ID %d in final trace", e.CID)
		}
		seen[e.CID] = true
		if e.Step < lastStep[e.Proc] {
			t.Fatalf("Step went backwards on %v: %d after %d", e.Proc, e.Step, lastStep[e.Proc])
		}
		lastStep[e.Proc] = e.Step
		if e.Kind == sim.EvDeliver && e.MsgID == 0 {
			t.Fatalf("delivery without message identity: %+v", e)
		}
	}
}

// SetEventSink keeps a replace-all contract (the frozen benchmark installs
// its fan-out through it): after it, earlier hooks are gone by request, and
// nil clears the list.
func TestSetEventSinkReplacesAllHooks(t *testing.T) {
	rt, _, _ := buildRuntime(2, 0, 1, core.VariantFDP, nil)
	var added, sunk int
	rt.AddEventHook(func(sim.Event) { added++ })
	rt.SetEventSink(func(sim.Event) { sunk++ })
	p := rt.procs[0]
	sh := p.sh
	if sh.note(sim.EvTimeout) {
		rt.emit(sh, sim.Event{Kind: sim.EvTimeout, Proc: p.id})
	}
	if added != 0 || sunk != 1 {
		t.Fatalf("after SetEventSink: displaced hook saw %d events, sink saw %d; want 0 and 1", added, sunk)
	}
	rt.SetEventSink(nil)
	if sh.note(sim.EvTimeout) {
		t.Fatal("an event would be built with no hook installed")
	}
	if sunk != 1 || rt.KindCount(sim.EvTimeout) != 2 {
		t.Fatalf("after SetEventSink(nil): sink saw %d events, counter %d; want 1 and 2", sunk, rt.KindCount(sim.EvTimeout))
	}
}

// TestStepNonDecreasingPerProcess holds Event.Step and Event.Lane to what
// events.go says of them on the path that stamps them from a cache: four
// forced shards (each worker adds its own count to a sum of the others it
// refreshes once per iteration), with Freeze and Mutate pausing the world
// while the churn runs. Per process the stamp never goes backwards, whichever
// worker or exit committer emitted; every event about a process carries one
// lane, its owning shard's; and no stamp runs ahead of the true count.
// `make race` runs it for the striped stamping the way it runs
// TestForcedShardChurn for the mail path.
func TestStepNonDecreasingPerProcess(t *testing.T) {
	const shards = 4
	rt, _, leaving := buildShardedRuntime(512, 0.5, 29, core.VariantFDP, oracle.Single{}, shards)
	log := &eventLog{}
	rt.AddEventHook(log.record)
	rt.Start()
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; rt.Gone() < uint64(leaving.Len()) && time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			rt.Freeze()
		} else {
			rt.Mutate(func(*MutableView) {})
		}
		time.Sleep(200 * time.Microsecond)
	}
	rt.Stop()
	if rt.Gone() != uint64(leaving.Len()) {
		t.Fatalf("only %d/%d exits", rt.Gone(), leaving.Len())
	}
	total := int(rt.Events())
	lastStep := make(map[ref.Ref]int)
	lanes := make(map[uint8]bool)
	for _, e := range log.snapshot() {
		if e.Step < lastStep[e.Proc] {
			t.Fatalf("Step went backwards on %v: %d after %d (%v, lane %d)", e.Proc, e.Step, lastStep[e.Proc], e.Kind, e.Lane)
		}
		lastStep[e.Proc] = e.Step
		if e.Step > total {
			t.Fatalf("Step %d on %v exceeds the %d actions ever executed", e.Step, e.Proc, total)
		}
		if own := rt.lookup(e.Proc).sh.idx; int(e.Lane) != own {
			t.Fatalf("event on lane %d about %v, which shard %d owns: %+v", e.Lane, e.Proc, own, e)
		}
		lanes[e.Lane] = true
	}
	if len(lanes) != shards {
		t.Fatalf("events on lanes %v, want all %d shards' lanes", lanes, shards)
	}
}
