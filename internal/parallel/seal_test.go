package parallel_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/diffval"
	"fdp/internal/framework"
	"fdp/internal/oracle"
	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// mirrorByHand builds what diffval.MirrorWorld builds, process by process
// and with no hand-over: its seal freezes the runtime and seals that.
func mirrorByHand(w *sim.World, orc parallel.Oracle) *parallel.Runtime {
	rt := parallel.NewRuntime(orc)
	w.CloneLive(func(r ref.Ref, mode sim.Mode, life sim.Life, proto sim.Protocol, ch []sim.Message) {
		rt.AddProcess(r, mode, proto)
		if life == sim.Asleep {
			rt.ForceAsleep(r)
		}
		for _, m := range ch {
			rt.Enqueue(r, m)
		}
	})
	return rt
}

// onShards runs build with GOMAXPROCS at k, so the runtime it makes has k
// shards.
func onShards(k int, build func() *parallel.Runtime) *parallel.Runtime {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
	return build()
}

// sealCase is one world to seal both ways: a built scenario, changed by
// prep (which must leave it sealed) if set.
type sealCase struct {
	name string
	cfg  churn.Config
	prep func(t *testing.T, w *sim.World)
}

func sealCases() []sealCase {
	var cases []sealCase
	for _, topo := range []churn.Topology{churn.TopoLine, churn.TopoRing, churn.TopoRandom} {
		for _, leave := range []float64{0.02, 0.3, 0.5, 0.9} {
			cases = append(cases, sealCase{name: fmt.Sprintf("%v/leave=%v", topo, leave),
				cfg: churn.Config{N: 200, Topology: topo, LeaveFraction: leave, Pattern: churn.LeaveRandom}})
		}
	}
	for name, c := range map[string]churn.Corruption{
		"junk": {JunkMessages: 60}, "flip": {FlipBeliefs: 0.5}, "anchors": {RandomAnchors: 0.5},
	} {
		cases = append(cases, sealCase{name: name, cfg: churn.Config{N: 200, Topology: churn.TopoRandom,
			LeaveFraction: 0.5, Pattern: churn.LeaveRandom, Corrupt: c}})
	}
	cases = append(cases,
		// FSP, stepped until processes sleep, then re-sealed from scratch.
		sealCase{name: "fsp-asleep", cfg: churn.Config{N: 60, Topology: churn.TopoRandom, LeaveFraction: 0.5,
			Pattern: churn.LeaveRandom, Variant: core.VariantFSP},
			prep: func(t *testing.T, w *sim.World) {
				sched := sim.NewRandomScheduler(3, 0)
				for asleep(w) < 5 {
					a, ok := sched.Next(w)
					if !ok {
						t.Fatal("the FSP world went quiescent with fewer than 5 asleep")
					}
					w.Execute(a)
				}
				w.InvalidatePG()
				w.SealInitialState()
			}},
		sealCase{name: "overlay", cfg: churn.Config{N: 32, Topology: churn.TopoRandom, LeaveFraction: 0.3,
			Pattern: churn.LeaveRandom, Overlay: framework.OverlayLinearize}},
	)
	return cases
}

func asleep(w *sim.World) int {
	n := 0
	for _, r := range w.Refs() {
		if w.LifeOf(r) == sim.Asleep {
			n++
		}
	}
	return n
}

// TestHandOverMatchesRecount seals, on three shards, a runtime mirrored from
// a sealed world (it copies the world's ledger and components) and one built
// process by process from the same world (it freezes itself and seals the
// frozen world), under SINGLE and under NIDEC, which keeps no ledger: the
// hand-over must equal freeze-and-seal. Both must leave the same rows with
// their pairs in the same order, the same cached answers, ready lists,
// timeout laps (leavers and their row members first under SINGLE) and
// initial components. The hand-over runtime then runs for a while, and the
// world's ledger must still read as sealed: the copy shares no row with it.
func TestHandOverMatchesRecount(t *testing.T) {
	for _, c := range sealCases() {
		for _, orc := range []parallel.Oracle{oracle.Single{}, oracle.NIDEC{}} {
			_, single := orc.(oracle.Single)
			t.Run(fmt.Sprintf("%s/single=%v", c.name, single), func(t *testing.T) {
				c.cfg.Oracle, c.cfg.Seed = orc, 11
				s := churn.Build(c.cfg)
				if c.prep != nil {
					c.prep(t, s.World)
				}
				handed := onShards(3, func() *parallel.Runtime { return diffval.MirrorWorld(s.World, orc) })
				recount := onShards(3, func() *parallel.Runtime { return mirrorByHand(s.World, orc) })
				if !parallel.Seal(handed) {
					t.Fatal("the mirrored runtime froze itself instead of taking the hand-over")
				}
				if parallel.Seal(recount) {
					t.Fatal("a runtime built process by process took a hand-over")
				}
				got, want := parallel.SealedState(handed), parallel.SealedState(recount)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("hand-over seal differs from freeze-and-seal:\n got %+v\nwant %+v", got, want)
				}
				if !reflect.DeepEqual(got.Components, s.World.InitialComponents()) {
					t.Fatal("the runtime's initial components are not the world's")
				}
				if single && !hasRows(want) && c.cfg.LeaveFraction > 0.1 {
					t.Fatal("no leaver has a pair: the comparison shows nothing")
				}

				handed.RunSeeded(11, func(*sim.World) bool { return false }, time.Millisecond, 20*time.Millisecond)
				led, _, gen := s.World.Sealed()
				if gen == 0 {
					t.Fatal("running the runtime unsealed the world")
				}
				if handed.Gone() == 0 && c.cfg.LeaveFraction > 0.1 && c.cfg.Variant == core.VariantFDP {
					t.Fatal("no leaver exited: the run changed no row")
				}
				i := 0
				s.World.CloneLive(func(r ref.Ref, _ sim.Mode, _ sim.Life, _ sim.Protocol, _ []sim.Message) {
					if single && !reflect.DeepEqual(led.Pairs(r), want.Rows[i]) {
						t.Fatalf("the world's row of %v changed under the runtime: %v, sealed %v", r, led.Pairs(r), want.Rows[i])
					}
					i++
				})
			})
		}
	}
}

func hasRows(s parallel.SealState) bool {
	for _, r := range s.Rows {
		if len(r) > 0 {
			return true
		}
	}
	return false
}

// TestRuntimeChangesDropTheHandOver: an Enqueue, ForceAsleep, AddProcess or
// Mutate after MirrorWorld makes the runtime differ from the sealed world, so
// its seal freezes the runtime and seals that, and it leaves what a runtime
// built by hand with the same change leaves.
func TestRuntimeChangesDropTheHandOver(t *testing.T) {
	s := churn.Build(churn.Config{N: 100, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 4})
	leaver, stayer := s.LeavingNodes()[0], s.StayingNodes()[0]
	extra := s.Space.New()
	for name, change := range map[string]func(rt *parallel.Runtime){
		"Enqueue": func(rt *parallel.Runtime) {
			rt.Enqueue(leaver, sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: stayer, Mode: sim.Staying}))
		},
		"ForceAsleep": func(rt *parallel.Runtime) { rt.ForceAsleep(leaver) },
		"AddProcess": func(rt *parallel.Runtime) {
			p := core.New(core.VariantFDP)
			p.SetNeighbor(leaver, sim.Leaving)
			rt.AddProcess(extra, sim.Staying, p)
		},
		"Mutate": func(rt *parallel.Runtime) {
			rt.Mutate(func(v *parallel.MutableView) {
				v.ProtocolOf(stayer).(*core.Proc).SetNeighbor(leaver, sim.Leaving)
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			handed := onShards(2, func() *parallel.Runtime { return diffval.MirrorWorld(s.World, oracle.Single{}) })
			recount := onShards(2, func() *parallel.Runtime { return mirrorByHand(s.World, oracle.Single{}) })
			change(handed)
			change(recount)
			if parallel.Seal(handed) {
				t.Fatalf("%s after the hand-over left it in place", name)
			}
			parallel.Seal(recount)
			if got, want := parallel.SealedState(handed), parallel.SealedState(recount); !reflect.DeepEqual(got, want) {
				t.Fatalf("seal after %s differs from the hand-built runtime's:\n got %+v\nwant %+v", name, got, want)
			}
		})
	}
}

// TestSteppedWorldRecounts: a world stepped between MirrorWorld and Start no
// longer is the state the runtime holds, so the runtime freezes itself and
// seals that, and its run still converges with the relevant components
// intact.
func TestSteppedWorldRecounts(t *testing.T) {
	s := churn.Build(churn.Config{N: 200, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 9})
	rts := [2]*parallel.Runtime{diffval.MirrorWorld(s.World, oracle.Single{}), diffval.MirrorWorld(s.World, oracle.Single{})}
	sched := sim.NewRandomScheduler(9, 0)
	for s.World.GoneCount() == 0 {
		a, ok := sched.Next(s.World)
		if !ok {
			t.Fatal("the world went quiescent before an exit")
		}
		s.World.Execute(a)
	}
	if parallel.Seal(rts[0]) {
		t.Fatal("a runtime mirrored before the world stepped took the hand-over")
	}
	leavers := len(s.LeavingNodes())
	ok := rts[1].RunSeeded(9, func(w *sim.World) bool { return w.Legitimate(sim.FDP) }, time.Millisecond, 10*time.Second)
	if final := rts[1].Freeze(); !ok || !final.RelevantComponentsIntact() || !final.Legitimate(sim.FDP) || int(rts[1].Gone()) != leavers {
		t.Fatalf("converged %v, intact %v, %d of %d leavers gone", ok, final.RelevantComponentsIntact(), rts[1].Gone(), leavers)
	}
}

// TestHandedOverRunConverges runs a hand-over runtime on the wall clock
// with three workers, which grow the copied rows side by side in their
// shared array (under -race, what shows that no two of them overlap), to a
// legitimate state with every leaver gone and the relevant components
// intact.
func TestHandedOverRunConverges(t *testing.T) {
	s := churn.Build(churn.Config{N: 300, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 12})
	rt := onShards(3, func() *parallel.Runtime { return diffval.MirrorWorld(s.World, oracle.Single{}) })
	ok := rt.RunUntil(func(w *sim.World) bool { return w.Legitimate(sim.FDP) }, time.Millisecond, 20*time.Second)
	if final := rt.Freeze(); !ok || !final.RelevantComponentsIntact() || int(rt.Gone()) != len(s.LeavingNodes()) {
		t.Fatalf("converged %v, intact %v, %d of %d leavers gone", ok, final.RelevantComponentsIntact(), rt.Gone(), len(s.LeavingNodes()))
	}
}

// TestHandOverSealAllocates pins the hand-over seal of an n = 10,000 world
// with half of it leaving to a handful of allocations: the ledger's tables,
// one backing array for the rows and one for the exit stamps, with no
// allocation per process. Freezing and sealing the same runtime makes
// ~30,600.
func TestHandOverSealAllocates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n = 10,000 world")
	}
	s := churn.Build(churn.Config{N: 10000, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 1})
	const most = 64
	best := uint64(1 << 62)
	for range 3 {
		rt := diffval.MirrorWorld(s.World, oracle.Single{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handed := parallel.Seal(rt)
		runtime.ReadMemStats(&after)
		if !handed {
			t.Fatal("no hand-over")
		}
		best = min(best, after.Mallocs-before.Mallocs)
	}
	t.Logf("the hand-over seal made %d allocations", best)
	if best > most {
		t.Fatalf("the hand-over seal made %d allocations, want at most %d", best, most)
	}
}

// countingRefs counts the calls of its protocol's Refs.
type countingRefs struct {
	sim.Protocol
	calls *int
}

func (c countingRefs) Refs() []ref.Ref {
	*c.calls++
	return c.Protocol.Refs()
}

// TestHandOverSealReadsNoStore: a hand-over seal takes the ledger and the
// components from the world and reads no process's stored references — the
// next action of each process takes its own diff base — while freezing and
// sealing the same runtime reads every store.
func TestHandOverSealReadsNoStore(t *testing.T) {
	for _, leave := range []float64{0.02, 0.5} {
		s := churn.Build(churn.Config{N: 500, Topology: churn.TopoRandom, LeaveFraction: leave,
			Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 6})
		for _, orc := range []parallel.Oracle{oracle.Single{}, oracle.NIDEC{}} {
			for _, handOver := range []bool{true, false} {
				calls := 0
				rt := parallel.NewRuntime(orc)
				s.World.CloneLive(func(r ref.Ref, mode sim.Mode, life sim.Life, proto sim.Protocol, ch []sim.Message) {
					rt.AddProcess(r, mode, countingRefs{proto, &calls})
					for _, m := range ch {
						rt.Enqueue(r, m)
					}
				})
				if handOver {
					rt.HandOver(s.World)
				}
				calls = 0
				if parallel.Seal(rt) != handOver {
					t.Fatalf("leave=%v %T: seal took the hand-over %v, want %v", leave, orc, !handOver, handOver)
				}
				if handOver && calls != 0 {
					t.Fatalf("leave=%v %T: the hand-over seal called Refs %d times", leave, orc, calls)
				}
				if !handOver && calls == 0 {
					t.Fatalf("leave=%v %T: freeze-and-seal read no store: the counter shows nothing", leave, orc)
				}
			}
		}
	}
}

// BenchmarkSeal prices Start's seal at n = 10,000 (random topology, as
// rt_churn and rt_sparse build it) with half and with 2 % of the processes
// leaving, on the hand-over path (MirrorWorld from the sealed world) and on
// the recount path (the runtime built process by process, frozen and
// sealed). The runtime is built outside the timer.
func BenchmarkSeal(b *testing.B) {
	for _, leave := range []float64{0.5, 0.02} {
		s := churn.Build(churn.Config{N: 10000, Topology: churn.TopoRandom, LeaveFraction: leave,
			Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 1})
		for _, path := range []struct {
			name  string
			build func(*sim.World, parallel.Oracle) *parallel.Runtime
		}{{"handover", diffval.MirrorWorld}, {"recount", mirrorByHand}} {
			b.Run(fmt.Sprintf("leave=%v/%s", leave, path.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rt := path.build(s.World, oracle.Single{})
					b.StartTimer()
					parallel.Seal(rt)
				}
			})
		}
	}
}

// TestSealCountsInjectedMail: a message Injected before Start waits in its
// target shard's inbox, and the seal must count its references like those of
// an Enqueued one — in every leaver's ledger degree and in the initial
// components — or its delivery later takes away pairs that were never
// added. Once on a world handed over by MirrorWorld, whose hand-over the
// Inject must void, and once on a runtime of three processes built by hand
// on two shards.
func TestSealCountsInjectedMail(t *testing.T) {
	present := func(u ref.Ref) sim.Message {
		return sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: u, Mode: sim.Leaving})
	}
	check := func(t *testing.T, rt *parallel.Runtime, u ref.Ref, before int) {
		t.Helper()
		if parallel.Seal(rt) {
			t.Error("seal took the hand-over past an Inject")
		}
		sealed := parallel.SealedState(rt)
		w := rt.Freeze()
		for i, v := range w.Refs() {
			if w.ModeOf(v) != sim.Leaving {
				continue
			}
			got, want := len(sealed.Rows[i]), 0
			if want, _ = w.RelevantDegree(v); v == u && want == before {
				t.Fatalf("the injected message moved no degree of %v: the check shows nothing", u)
			}
			if got != want {
				t.Errorf("leaver %v: sealed degree %d, frozen world %d", v, got, want)
			}
		}
		w.SealInitialState()
		if want := w.InitialComponents(); !reflect.DeepEqual(sealed.Components, want) {
			t.Errorf("sealed components %v, frozen world %v", sealed.Components, want)
		}
	}

	t.Run("handed-over", func(t *testing.T) {
		s := churn.Build(churn.Config{N: 20, Topology: churn.TopoLine, LeaveFraction: 0.5,
			Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 3})
		u, pg := s.LeavingNodes()[0], s.World.PG()
		var x ref.Ref
		for _, x = range s.StayingNodes() {
			if pg.EdgeCount(u, x)+pg.EdgeCount(x, u) == 0 {
				break
			}
		}
		before, _ := s.World.RelevantDegree(u)
		rt := onShards(2, func() *parallel.Runtime { return diffval.MirrorWorld(s.World, oracle.Single{}) })
		if !rt.Inject(x, present(u)) {
			t.Fatal("Inject refused the message")
		}
		check(t, rt, u, before)
	})

	t.Run("by-hand", func(t *testing.T) {
		nodes := ref.NewSpace().NewN(3)
		u, a, b := nodes[0], nodes[1], nodes[2]
		rt := parallel.NewRuntime(oracle.Single{})
		rt.SetShards(2)
		pu, pa, pb := core.New(core.VariantFDP), core.New(core.VariantFDP), core.New(core.VariantFDP)
		pu.SetNeighbor(a, sim.Staying)
		pa.SetNeighbor(u, sim.Leaving)
		pb.SetNeighbor(a, sim.Staying)
		rt.AddProcess(u, sim.Leaving, pu)
		rt.AddProcess(a, sim.Staying, pa)
		rt.AddProcess(b, sim.Staying, pb)
		if !rt.Inject(b, present(u)) {
			t.Fatal("Inject refused the message")
		}
		check(t, rt, u, 1)
	})
}
