package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fdp/internal/app"
	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/framework"
	"fdp/internal/graph"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// joinedIn is the component check answered from a built graph: in every
// initial component the members are nodes of g — a component of two members
// or more fails if one is not — and lie in one weakly connected component
// of g.
func joinedIn(w *sim.World, g *graph.Graph, member func(ref.Ref) bool) bool {
	class := map[ref.Ref]int{}
	for i, comp := range g.WeaklyConnectedComponents() {
		for _, r := range comp {
			class[r] = i
		}
	}
	for _, comp := range w.InitialComponents() {
		first, members, ok := -1, 0, true
		for _, r := range comp {
			if !w.Has(r) || !member(r) {
				continue
			}
			members++
			c, in := class[r]
			switch {
			case !in:
				ok = false
			case first < 0:
				first = c
			case c != first:
				ok = false
			}
		}
		if members >= 2 && !ok {
			return false
		}
	}
	return true
}

// verdicts tallies the answers the checks gave, so a run can show it saw
// both.
type verdicts struct{ staying, intact [2]int }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkComponents holds the union-find's three answers in w's state to
// PG()/RelevantPG() and their weakly connected components: condition (iii),
// the Lemma 2 check, and the partition a seal would take (on a clone, so w
// keeps its own).
func checkComponents(t *testing.T, w *sim.World, where string, v *verdicts) {
	t.Helper()
	staying := w.PG()
	for _, r := range w.Refs() {
		if w.ModeOf(r) != sim.Staying {
			staying.RemoveNode(r)
		}
	}
	want := joinedIn(w, staying, func(r ref.Ref) bool { return w.ModeOf(r) == sim.Staying })
	if got := w.StayingComponentsPreserved(); got != want {
		t.Fatalf("%s: StayingComponentsPreserved = %v, the built PG says %v", where, got, want)
	}
	v.staying[b2i(want)]++
	rel := w.RelevantPG()
	want = joinedIn(w, rel, rel.HasNode)
	if got := w.RelevantComponentsIntact(); got != want {
		t.Fatalf("%s: RelevantComponentsIntact = %v, the built RelevantPG says %v", where, got, want)
	}
	v.intact[b2i(want)]++
	c := w.Clone()
	c.SealInitialState()
	if got, want := c.InitialComponents(), c.PG().WeaklyConnectedComponents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sealed partition %v, the built PG's components %v", where, got, want)
	}
}

// TestComponentChecksMatchGraph: on every topology, bare and under P′, for
// FDP and for FSP with asleep leavers, in states sampled at random steps of
// a run, the union-find checks answer what the built graphs do. Every third
// topology is split into three components, so the members never form one
// class and the early stop never fires. Each sampled state is also checked
// on a clone with one process that stores two references or more marked
// gone, the way a frozen runtime world drops its exited processes: its
// references must stop counting.
func TestComponentChecksMatchGraph(t *testing.T) {
	var v verdicts
	for i, topo := range churn.Topologies() {
		comps, n := 1, 16
		if i%3 == 0 {
			comps, n = 3, 24 // 8 a component: a hypercube's size is a power of two
		}
		for _, kind := range []struct {
			name    string
			overlay churn.Overlay
			variant core.Variant
		}{
			{"bare/FDP", nil, core.VariantFDP},
			{"bare/FSP", nil, core.VariantFSP},
			{"P′/FDP", framework.Overlays()[i%len(framework.Overlays())], core.VariantFDP},
			{"P′/FSP", framework.Overlays()[(i+1)%len(framework.Overlays())], core.VariantFSP},
		} {
			seed := int64(30*i + 7)
			name := fmt.Sprintf("%v/%s/components=%d", topo, kind.name, comps)
			t.Run(name, func(t *testing.T) {
				var junk churn.Corruption
				if i%2 == 1 {
					junk.JunkMessages = 8
				}
				s, err := churn.TryBuild(churn.Config{
					N: n, Topology: topo, LeaveFraction: 0.4, Pattern: churn.LeaveRandom,
					Variant: kind.variant, Oracle: oracle.Single{}, Seed: seed, Components: comps,
					Overlay: kind.overlay, Corrupt: junk,
				})
				if err != nil {
					t.Fatal(err)
				}
				w := s.World
				sched := sim.NewRandomScheduler(seed, 64)
				rng := rand.New(rand.NewSource(seed))
				asleep := 0
				check := func() {
					where := fmt.Sprintf("seed %d, step %d", seed, w.Steps())
					checkComponents(t, w, where, &v)
					var holders []ref.Ref
					for _, r := range w.Refs() {
						if w.LifeOf(r) != sim.Gone && len(w.ProtocolOf(r).Refs()) >= 2 {
							holders = append(holders, r)
						}
						if w.LifeOf(r) == sim.Asleep {
							asleep++
						}
					}
					if len(holders) > 0 {
						c := w.Clone()
						gone := holders[rng.Intn(len(holders))]
						c.MarkGone(gone)
						checkComponents(t, c, fmt.Sprintf("%s, %v marked gone", where, gone), &v)
					}
				}
				check()
				for step := 0; step < 1000; step++ {
					a, ok := sched.Next(w)
					if !ok {
						break
					}
					w.Execute(a)
					if rng.Intn(16) == 0 {
						check()
					}
				}
				check()
				if kind.variant == core.VariantFSP && asleep == 0 {
					t.Fatalf("no sampled state of the FSP run had a process asleep")
				}
			})
		}
	}
	if slices.Contains(v.staying[:], 0) || slices.Contains(v.intact[:], 0) {
		t.Fatalf("verdicts (false, true): condition (iii) %v, Lemma 2 %v; want both of each", v.staying, v.intact)
	}
}

// TestLedgerSleepsAfterTheLastExit: once the last leaver of a core.Proc
// world has exited the ledger holds no row and an action changing a stayer's
// store no longer resyncs its copy. AddProcess of a leaver, InvalidatePG and
// Clone each drop it, the next seed — a new leaver's degree query, or the
// re-seal a fault strike does — rewrites every copy, and every degree, NIDEC
// verdict and the Lemma 2 check then answer what the built graph does.
func TestLedgerSleepsAfterTheLastExit(t *testing.T) {
	dormantWorld := func(t *testing.T) (*churn.Scenario, *sim.Scheduler) {
		s := churn.Build(churn.Config{
			N: 24, Topology: churn.TopoRandom, LeaveFraction: 0.4, Pattern: churn.LeaveRandom,
			Variant: core.VariantFDP, Oracle: oracle.Single{}, Seed: 5,
		})
		var sched sim.Scheduler = sim.NewRandomScheduler(5, 64)
		w := s.World
		for w.LeavingRemaining() > 0 {
			a, ok := sched.Next(w)
			if !ok {
				t.Fatal("quiescent with leavers left")
			}
			w.Execute(a)
		}
		if got := sim.LedgerLeavers(w); got != 0 {
			t.Fatalf("after the last exit the ledger holds %d rows (-1: none), want 0", got)
		}
		// Step on until some stayer's store has moved off its diff base.
		for steps := 0; !stale(w); steps++ {
			if steps == 20000 {
				t.Fatal("no stayer's store changed in 20000 steps after the last exit")
			}
			a, _ := sched.Next(w)
			w.Execute(a)
		}
		return s, &sched
	}
	t.Run("AddProcess of a leaver", func(t *testing.T) {
		s, _ := dormantWorld(t)
		w := s.World
		stayer := s.StayingNodes()[0]
		u := s.Space.New()
		p := core.New(core.VariantFDP)
		p.SetNeighbor(stayer, sim.Staying)
		w.AddProcess(u, sim.Leaving, p)
		checkRearmed(t, w, func() { w.RelevantDegree(u) }, 1)
	})
	t.Run("InvalidatePG", func(t *testing.T) {
		s, _ := dormantWorld(t)
		w := s.World
		w.InvalidatePG()
		checkRearmed(t, w, w.SealInitialState, 0)
	})
	t.Run("Clone", func(t *testing.T) {
		s, _ := dormantWorld(t)
		c := s.World.Clone()
		checkRearmed(t, c, c.SealInitialState, 0)
	})
	t.Run("no AddProcess, InvalidatePG or Clone: the ledger sleeps on", func(t *testing.T) {
		s, sched := dormantWorld(t)
		w := s.World
		for i := 0; i < 200; i++ {
			a, _ := (*sched).Next(w)
			w.Execute(a)
		}
		if got := sim.LedgerLeavers(w); got != 0 || !stale(w) {
			t.Fatalf("ledger rows %d, a stale base %v: want 0 and true", got, stale(w))
		}
	})
}

// stale reports whether some live process's store differs from the diff base
// the ledger last synced against.
func stale(w *sim.World) bool {
	for _, r := range w.Refs() {
		if w.LifeOf(r) != sim.Gone && !slices.Equal(sim.SyncedRefs(w, r), w.ProtocolOf(r).Refs()) {
			return true
		}
	}
	return false
}

// checkRearmed holds w, whose ledger was just dropped, to a fresh seed: seed
// seeds it, and it then has rows for the given number of leavers, every
// diff base current, and every degree, NIDEC verdict and the Lemma 2 check
// equal to the built graph's.
func checkRearmed(t *testing.T, w *sim.World, seed func(), leavers int) {
	t.Helper()
	if st := sim.DegreeState(w); st != "none" {
		t.Fatalf("world on %q, want the ledger dropped", st)
	}
	seed()
	if got := sim.LedgerLeavers(w); got != leavers {
		t.Fatalf("re-armed ledger holds %d rows (-1: none), want %d", got, leavers)
	}
	if stale(w) {
		t.Fatal("a diff base is stale after the reseed")
	}
	g := w.RelevantPG()
	for _, r := range w.Refs() {
		if w.LifeOf(r) == sim.Gone {
			continue
		}
		if d, ok := w.RelevantDegree(r); d != g.Degree(r) || ok != g.HasNode(r) {
			t.Fatalf("RelevantDegree(%v) = %d, %v; built %d, %v", r, d, ok, g.Degree(r), g.HasNode(r))
		}
		want := g.HasNode(r) && w.ChannelLen(r) == 0 && len(g.Pred(r)) == 0
		if got := w.NIDEC(r); got != want {
			t.Fatalf("NIDEC(%v) = %v, built %v", r, got, want)
		}
	}
	if got, want := w.RelevantComponentsIntact(), joinedIn(w, g, g.HasNode); got != want {
		t.Fatalf("RelevantComponentsIntact = %v, built %v", got, want)
	}
}

// BenchmarkComponentChecks prices the two component checks on the states
// they are asked in most: legitimacy on a P′ world whose departures are
// over while P's list still converges (overlay_lookup re-checks it every n
// steps there), and the Lemma 2 invariant on a large churn world mid-run.
func BenchmarkComponentChecks(b *testing.B) {
	b.Run("legitimate/overlay/n=32", func(b *testing.B) {
		sc := framework.Build(framework.Config{
			N: 32, LeaveFraction: 0.3, Variant: core.VariantFDP, Oracle: oracle.Single{},
			Seed: 1, ExtraEdges: 16,
			MakeOverlay: func(keys overlay.Keys) overlay.Protocol { return app.NewRoutedList(keys) },
		})
		w := sc.World
		sched := sim.NewRandomScheduler(1, 512)
		for w.LeavingRemaining() > 0 {
			a, ok := sched.Next(w)
			if !ok {
				b.Fatal("quiescent with leavers left")
			}
			w.Execute(a)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Legitimate(sim.FDP)
		}
	})
	b.Run("intact/churn/n=20000", func(b *testing.B) {
		s := churn.Build(churn.Config{
			N: 20000, Topology: churn.TopoRandom, LeaveFraction: 0.5, Pattern: churn.LeaveRandom,
			Variant: core.VariantFDP, Oracle: oracle.Single{}, Seed: 1,
		})
		w := s.World
		sched := sim.NewRandomScheduler(1, 0)
		for i := 0; i < 40000; i++ {
			a, ok := sched.Next(w)
			if !ok {
				break
			}
			w.Execute(a)
		}
		if !w.RelevantComponentsIntact() {
			b.Fatal("Lemma 2 violated mid-run")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RelevantComponentsIntact()
		}
	})
}
