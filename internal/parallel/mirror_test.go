package parallel_test

import (
	"runtime"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/diffval"
	"fdp/internal/oracle"
	"fdp/internal/parallel"
	"fdp/internal/sim"
)

// TestMirrorWorldWithHoles transplants a sequential FDP world stopped after
// some exits. MirrorWorld leaves the gone processes out, so the runtime's
// process table has holes and a process's reference index is not its
// registration order. On 1 and 3 shards the ledger seeded at Start must hold
// every live leaver's frozen degree, and the run must converge safely.
func TestMirrorWorldWithHoles(t *testing.T) {
	s := churn.Build(churn.Config{N: 300, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 17})
	leavers := len(s.LeavingNodes())
	sched := sim.NewRandomScheduler(17, 0)
	for s.World.GoneCount() < leavers/3 {
		a, ok := sched.Next(s.World)
		if !ok {
			t.Fatal("the sequential world went quiescent")
		}
		s.World.Execute(a)
	}
	var hole, afterHole bool // a gone process below a live one
	for _, r := range s.World.Refs() {
		gone := s.World.LifeOf(r) == sim.Gone
		hole = hole || gone
		afterHole = afterHole || hole && !gone
	}
	if !afterHole {
		t.Fatal("no live process above a gone one: the mirrored table has no hole to test")
	}
	for _, shards := range []int{1, 3} {
		mirror := func() *parallel.Runtime {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
			return diffval.MirrorWorld(s.World, oracle.Single{})
		}
		rt := mirror()
		if rt.Shards() != shards {
			t.Fatalf("mirrored onto %d shards, want %d", rt.Shards(), shards)
		}
		degrees := parallel.SealedDegrees(rt)
		w := rt.Freeze()
		if want := leavers - s.World.GoneCount(); len(degrees) != want {
			t.Fatalf("shards=%d: the ledger has %d live leavers, want %d", shards, len(degrees), want)
		}
		for u, got := range degrees {
			if want, _ := w.RelevantDegree(u); got != want {
				t.Fatalf("shards=%d: seeded degree of %v is %d, frozen world %d", shards, u, got, want)
			}
		}

		rt = mirror()
		ok := rt.RunUntil(func(w *sim.World) bool { return w.Legitimate(sim.FDP) }, time.Millisecond, 20*time.Second)
		if final := rt.Freeze(); !ok || !final.RelevantComponentsIntact() || int(rt.Gone()) != len(degrees) {
			t.Fatalf("shards=%d: converged %v, intact %v, %d of %d remaining leavers gone",
				shards, ok, final.RelevantComponentsIntact(), rt.Gone(), len(degrees))
		}
	}
}
