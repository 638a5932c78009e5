package sim_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"fdp/internal/app"
	"fdp/internal/baseline"
	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/framework"
	"fdp/internal/graph"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Both engines keep the last slice a process's Refs handed out as the base
// their ledger diffs the next one against, so a protocol that writes a slice
// after handing it out corrupts the degrees exits are judged on. The tests
// below wrap every process of a run in keepRefs and hold every slice handed
// out to the copy taken when it was, after every step.

// handouts logs each slice a keepRefs handed out with a private copy of it.
type handouts struct {
	kept []handout
}

type handout struct {
	who       ref.Ref
	got, copy []ref.Ref
}

// broken reports the first logged slice that no longer equals its copy.
func (h *handouts) broken() error {
	for _, k := range h.kept {
		if !slices.Equal(k.got, k.copy) {
			return fmt.Errorf("%v's Refs handed out %v, which now reads %v", k.who, k.copy, k.got)
		}
	}
	return nil
}

// keepRefs wraps a protocol and logs every slice its Refs returns; a slice
// handed out again (same array, same length) is logged once.
type keepRefs struct {
	sim.Protocol
	self ref.Ref
	log  *handouts
	last []ref.Ref
}

func (k *keepRefs) Refs() []ref.Ref {
	r := k.Protocol.Refs()
	if len(r) > 0 && (len(r) != len(k.last) || &r[0] != &k.last[0]) {
		k.log.kept = append(k.log.kept, handout{k.self, r, slices.Clone(r)})
		k.last = r
	}
	return r
}

// Undeliverable hands a failed send on to the wrapped protocol, if it is
// told of them.
func (k *keepRefs) Undeliverable(ctx sim.Context, to ref.Ref, msg sim.Message) {
	if h, ok := k.Protocol.(sim.UndeliverableHandler); ok {
		h.Undeliverable(ctx, to, msg)
	}
}

// rewrap builds a world of w's live processes, each protocol wrapped in a
// keepRefs logging to log, with w's channels, judged by orc, and seals it.
func rewrap(w *sim.World, orc sim.Oracle, log *handouts) *sim.World {
	out := sim.NewWorld(orc)
	w.CloneLive(func(r ref.Ref, mode sim.Mode, life sim.Life, proto sim.Protocol, ch []sim.Message) {
		out.AddProcess(r, mode, &keepRefs{Protocol: proto, self: r, log: log})
		if life == sim.Asleep {
			out.ForceAsleep(r)
		}
		for _, m := range ch {
			out.Enqueue(r, m)
		}
	})
	out.SealInitialState()
	return out
}

// stepChecked runs w under a random scheduler until v is legitimate or
// maxSteps steps ran, and reports the first handout written, checked after
// every step.
func stepChecked(w *sim.World, v sim.Variant, seed int64, maxSteps int, log *handouts) error {
	sched := sim.NewRandomScheduler(seed, 0)
	for i := 1; i <= maxSteps && !w.Legitimate(v); i++ {
		a, ok := sched.Next(w)
		if !ok {
			break
		}
		w.Execute(a)
		if err := log.broken(); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	return nil
}

// changed reports whether some process handed out a second slice: a store
// changed during the run, so the check held something to its contract.
func changed(log *handouts) bool {
	seen := map[ref.Ref]bool{}
	for _, k := range log.kept {
		if seen[k.who] {
			return true
		}
		seen[k.who] = true
	}
	return false
}

// TestSequentialProtocolsKeepTheRefsContract holds every production
// protocol to the Refs contract on the sequential engine: core.Proc under
// FDP and FSP, P′ over every overlay and over the routed list, and the
// baseline.
func TestSequentialProtocolsKeepTheRefsContract(t *testing.T) {
	corrupt := churn.Corruption{RandomAnchors: 0.3, JunkMessages: 10}
	type run struct {
		name string
		cfg  churn.Config
	}
	runs := []run{
		{"core/fdp", churn.Config{N: 40, Topology: churn.TopoRandom, LeaveFraction: 0.5,
			Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Corrupt: corrupt}},
		{"core/fsp", churn.Config{N: 40, Topology: churn.TopoRandom, LeaveFraction: 0.5,
			Pattern: churn.LeaveRandom, Variant: core.VariantFSP, Corrupt: corrupt}},
		{"routed-list", churn.Config{N: 24, Topology: churn.TopoRandom, LeaveFraction: 0.3,
			Pattern: churn.LeaveRandom, Oracle: oracle.Single{},
			Overlay: framework.Factory(func(keys overlay.Keys) overlay.Protocol { return app.NewRoutedList(keys) })}},
	}
	for _, kind := range framework.Overlays() {
		runs = append(runs, run{"p'/" + kind.String(), churn.Config{N: 24, Topology: churn.TopoRandom,
			LeaveFraction: 0.4, Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Overlay: kind,
			Corrupt: churn.Corruption{RandomAnchors: 0.5, JunkPending: 6}}})
	}
	for _, r := range runs {
		for seed := int64(1); seed <= 3; seed++ {
			r.cfg.Seed = seed
			var log handouts
			w := rewrap(churn.Build(r.cfg).World, r.cfg.Oracle, &log)
			v := sim.FDP
			if r.cfg.Variant == core.VariantFSP {
				v = sim.FSP
			}
			if err := stepChecked(w, v, seed, 20000, &log); err != nil {
				t.Fatalf("%s seed %d: %v", r.name, seed, err)
			}
			if !changed(&log) {
				t.Fatalf("%s seed %d: no store changed: the check shows nothing", r.name, seed)
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		var log handouts
		if err := stepChecked(baselineLine(24, seed, &log), sim.FDP, seed, 20000, &log); err != nil {
			t.Fatalf("baseline seed %d: %v", seed, err)
		}
		if !changed(&log) {
			t.Fatalf("baseline seed %d: no store changed: the check shows nothing", seed)
		}
	}
}

// baselineLine is a sealed world of n baseline processes on a line, every
// third one leaving under NIDEC, each wrapped in a keepRefs logging to log.
func baselineLine(n int, seed int64, log *handouts) *sim.World {
	nodes := ref.NewSpace().NewN(n)
	keys := make(overlay.Keys, n)
	for i, r := range nodes {
		keys[r] = i
	}
	procs := make(map[ref.Ref]*baseline.Proc, n)
	w := sim.NewWorld(oracle.NIDEC{})
	for i, r := range nodes {
		procs[r] = baseline.New(keys)
		mode := sim.Staying
		if (i+int(seed))%3 == 0 {
			mode = sim.Leaving
		}
		w.AddProcess(r, mode, &keepRefs{Protocol: procs[r], self: r, log: log})
	}
	for _, e := range graph.Line(nodes).Edges() {
		procs[e.From].AddNeighbor(e.To)
	}
	w.SealInitialState()
	return w
}

// TestRuntimeKeepsTheRefsContract runs core.Proc under SINGLE on the
// runtime's seeded driver, on two and three shards, and checks every
// handout at every event and once the run is over.
func TestRuntimeKeepsTheRefsContract(t *testing.T) {
	for _, shards := range []int{2, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			s := churn.Build(churn.Config{N: 60, Topology: churn.TopoRandom, LeaveFraction: 0.5,
				Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: seed,
				Corrupt: churn.Corruption{RandomAnchors: 0.3, JunkMessages: 10}})
			var log handouts
			rt := parallel.NewRuntime(oracle.Single{})
			rt.SetShards(shards)
			s.World.CloneLive(func(r ref.Ref, mode sim.Mode, _ sim.Life, proto sim.Protocol, ch []sim.Message) {
				rt.AddProcess(r, mode, &keepRefs{Protocol: proto, self: r, log: &log})
				for _, m := range ch {
					rt.Enqueue(r, m)
				}
			})
			var first error
			rt.AddEventHook(func(sim.Event) {
				if first == nil {
					first = log.broken()
				}
			})
			ok := rt.RunSeeded(seed, func(w *sim.World) bool { return w.Legitimate(sim.FDP) }, time.Millisecond, 10*time.Second)
			if first == nil {
				first = log.broken()
			}
			if first != nil {
				t.Fatalf("%d shards, seed %d: %v", shards, seed, first)
			}
			if !ok || !changed(&log) {
				t.Fatalf("%d shards, seed %d: converged %v, a store changed %v", shards, seed, ok, changed(&log))
			}
		}
	}
}

// TestRefsContractCatchesAnInPlaceWrite: the check finds the chaos
// protocol's removal once it runs on the slice Refs last handed out, and
// passes the same runs when the removal works on a copy.
func TestRefsContractCatchesAnInPlaceWrite(t *testing.T) {
	for _, inPlace := range []bool{false, true} {
		caught := 0
		for seed := int64(1); seed <= 5; seed++ {
			nodes := ref.NewSpace().NewN(12)
			var log handouts
			w := sim.NewWorld(oracle.Single{})
			for i, r := range nodes {
				mode := sim.Staying
				if i%3 == 0 {
					mode = sim.Leaving
				}
				proto := sim.NewChaos(nodes, seed*100+int64(i), inPlace)
				w.AddProcess(r, mode, &keepRefs{Protocol: proto, self: r, log: &log})
			}
			w.SealInitialState()
			if err := stepChecked(w, sim.FDP, seed, 2000, &log); err != nil {
				caught++
			}
		}
		if inPlace && caught < 5 {
			t.Fatalf("the check caught the in-place removal in %d of 5 runs", caught)
		}
		if !inPlace && caught > 0 {
			t.Fatalf("the check failed %d of 5 runs of a protocol that copies before it writes", caught)
		}
	}
}
