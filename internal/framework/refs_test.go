package framework

import (
	"fmt"
	"slices"
	"testing"

	"fdp/internal/app"
	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// refsConfigs are the P′ scenarios the Refs and clone properties range over:
// all four overlays and the routed list, with corrupted anchors and injected
// junk entries, under both departure flavours.
func refsConfigs() []churn.Config {
	var out []churn.Config
	for _, kind := range []OverlayKind{OverlayLinearize, OverlayRing, OverlaySkip, OverlayClique} {
		for _, v := range []core.Variant{core.VariantFDP, core.VariantFSP} {
			out = append(out, churn.Config{
				N: 9, Topology: churn.TopoRandom, Overlay: kind, LeaveFraction: 0.4, Variant: v,
				Corrupt: churn.Corruption{RandomAnchors: 0.5, JunkPending: 6},
			})
		}
	}
	out = append(out, churn.Config{
		N: 9, Topology: churn.TopoRandom, LeaveFraction: 0.3,
		Overlay: Factory(func(keys overlay.Keys) overlay.Protocol { return app.NewRoutedList(keys) }),
		Corrupt: churn.Corruption{JunkPending: 4},
	})
	for i := range out {
		if out[i].Variant == core.VariantFDP {
			out[i].Oracle = oracle.Single{}
		}
	}
	return out
}

func configName(cfg churn.Config) string {
	if _, custom := cfg.Overlay.(Factory); custom {
		return fmt.Sprintf("routed-list/%v", cfg.Variant)
	}
	return fmt.Sprintf("%v/%v", cfg.Overlay, cfg.Variant)
}

// innerFromScratch enumerates what P stores from its accessors, not from
// its Refs.
func innerFromScratch(p overlay.Protocol) ref.Set {
	if rt, ok := p.(*app.Routed); ok {
		p = rt.Inner()
	}
	switch q := p.(type) {
	case *overlay.Linearize:
		return q.Neighbors()
	case *overlay.SortRing:
		s := q.Lin().Neighbors()
		s.Add(q.Wrap())
		return s
	case *overlay.SkipList:
		s := q.Lin().Neighbors()
		for _, r := range q.Level1().Sorted() {
			s.Add(r)
		}
		return s
	default:
		return ref.NewSet(p.Refs()...)
	}
}

// refsFromScratch enumerates every reference the wrapper stores — P's, the
// anchor, the shed set and each saved message's target and parameters —
// once each, in ref.Sort order.
func refsFromScratch(w *Wrapper) []ref.Ref {
	set := innerFromScratch(w.inner)
	set.Add(w.anchor)
	for _, r := range w.shed.Refs() {
		set.Add(r)
	}
	for _, e := range w.mlist {
		set.Add(e.to)
		for _, r := range e.refs {
			set.Add(r)
		}
	}
	return set.Sorted()
}

// handout is one slice a Refs call returned, with the contents it had then.
type handout struct {
	got, want []ref.Ref
}

// TestWrapperRefsMatchRecompute drives random P′ runs and, after every
// action, holds every wrapper's Refs to a from-scratch enumeration and every
// slice a wrapper or its overlay handed out earlier to the contents it had
// when handed out: the read-only contract sim.Protocol.Refs states.
func TestWrapperRefsMatchRecompute(t *testing.T) {
	for _, cfg := range refsConfigs() {
		for seed := int64(0); seed < 3; seed++ {
			cfg.Seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", configName(cfg), seed), func(t *testing.T) {
				s := build(cfg)
				sched := sim.NewRandomScheduler(seed, 256)
				type key struct {
					first *ref.Ref
					n     int
				}
				seen := make(map[key]bool)
				var held []handout
				keep := func(got []ref.Ref) {
					if len(got) == 0 || seen[key{&got[0], len(got)}] {
						return // nothing to write, or a slice handed out again
					}
					seen[key{&got[0], len(got)}] = true
					held = append(held, handout{got: got, want: slices.Clone(got)})
				}
				for step := 0; step < 3000; step++ {
					a, ok := sched.Next(s.World)
					if !ok {
						break
					}
					s.World.Execute(a)
					for _, r := range s.Nodes {
						if s.World.LifeOf(r) == sim.Gone {
							continue
						}
						w := s.Wrappers[r]
						got := w.Refs()
						if want := refsFromScratch(w); !slices.Equal(got, want) {
							t.Fatalf("step %d, %v: Refs() = %v, from scratch %v", step, r, got, want)
						}
						keep(got)
						keep(w.inner.Refs())
					}
					if step%25 != 0 {
						continue
					}
					for i, h := range held {
						if !slices.Equal(h.got, h.want) {
							t.Fatalf("by step %d: handed-out slice %d moved from %v to %v", step, i, h.want, h.got)
						}
					}
				}
			})
		}
	}
}

// An unchanged wrapper hands out the slice it handed out last: Refs
// allocates nothing, on every overlay.
func TestUnchangedWrapperRefsAllocateNothing(t *testing.T) {
	for _, cfg := range refsConfigs() {
		cfg.Seed = 1
		s := build(cfg)
		sched := sim.NewRandomScheduler(1, 256)
		for i := 0; i < 500; i++ {
			a, ok := sched.Next(s.World)
			if !ok {
				break
			}
			s.World.Execute(a)
		}
		for _, r := range s.Nodes {
			if s.World.LifeOf(r) == sim.Gone {
				continue
			}
			w := s.Wrappers[r]
			first := w.Refs()
			if n := testing.AllocsPerRun(100, func() { w.Refs() }); n != 0 {
				t.Errorf("%s %v: Refs() allocates %v per call", configName(cfg), r, n)
			}
			if again := w.Refs(); len(first) > 0 && &again[0] != &first[0] {
				t.Errorf("%s %v: an unchanged wrapper handed out a new slice", configName(cfg), r)
			}
		}
	}
}

// wrapperState renders everything a wrapper stores, for comparing a clone
// before and after its original moved on.
func wrapperState(w *Wrapper) string {
	st := fmt.Sprintf("refs=%v anchor=%v/%v shed=%v inner=%v mlist=", w.Refs(), w.anchor, w.anchorMode, w.shed.Refs(), w.inner.Refs())
	for _, e := range w.mlist {
		st += fmt.Sprintf("[%v %s %v %v %v %v]", e.to, e.label, e.refs, e.payload, e.every, e.modes)
	}
	if rt, ok := w.inner.(*app.Routed); ok {
		st += fmt.Sprintf(" stats=%+v", rt.Stats())
	}
	return st
}

// TestWrapperCloneIndependence clones mid-run P′ worlds (World.Clone needs
// every protocol to be sim.CloneableProtocol), steps the original on, and
// checks that no clone's Refs, mlist or modes moved — then that the clone,
// driven on its own, still converges.
func TestWrapperCloneIndependence(t *testing.T) {
	for _, cfg := range refsConfigs() {
		cfg.Seed = 2
		t.Run(configName(cfg), func(t *testing.T) {
			s := build(cfg)
			sched := sim.NewRandomScheduler(2, 256)
			for i := 0; i < 300; i++ {
				if a, ok := sched.Next(s.World); ok {
					s.World.Execute(a)
				}
			}
			c := s.World.Clone()
			before := make(map[ref.Ref]string)
			for _, r := range s.Nodes {
				if c.LifeOf(r) != sim.Gone {
					before[r] = wrapperState(c.ProtocolOf(r).(*Wrapper))
				}
			}
			for i := 0; i < 3000; i++ {
				if a, ok := sched.Next(s.World); ok {
					s.World.Execute(a)
				}
			}
			for _, r := range s.Nodes {
				if c.LifeOf(r) == sim.Gone {
					continue
				}
				if got := wrapperState(c.ProtocolOf(r).(*Wrapper)); got != before[r] {
					t.Fatalf("%v: stepping the original moved the clone from\n  %s\nto\n  %s", r, before[r], got)
				}
			}
			runToLegitAndTarget(t, s, c, sim.NewRandomScheduler(3, 256), 2000000)
		})
	}
}
