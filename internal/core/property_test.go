package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/graph"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Multi-component initial states: the legitimacy condition (iii) is defined
// per weakly connected component of the initial PG. Build two disjoint rings
// in one world and verify each component's staying processes stay connected
// within their own component.
func TestFDPMultipleComponents(t *testing.T) {
	space := ref.NewSpace()
	ringA := space.NewN(6)
	ringB := space.NewN(6)
	w := sim.NewWorld(oracle.Single{})
	procs := map[ref.Ref]*core.Proc{}
	leaving := ref.NewSet(ringA[1], ringA[3], ringB[0], ringB[5])
	install := func(nodes []ref.Ref) {
		g := graph.Ring(nodes)
		for _, r := range nodes {
			p := core.New(core.VariantFDP)
			procs[r] = p
			mode := sim.Staying
			if leaving.Has(r) {
				mode = sim.Leaving
			}
			w.AddProcess(r, mode, p)
		}
		for _, e := range g.Edges() {
			mode := sim.Staying
			if leaving.Has(e.To) {
				mode = sim.Leaving
			}
			procs[e.From].SetNeighbor(e.To, mode)
		}
	}
	install(ringA)
	install(ringB)
	w.SealInitialState()
	if len(w.InitialComponents()) != 2 {
		t.Fatalf("components = %d, want 2", len(w.InitialComponents()))
	}
	res := sim.Run(w, sim.NewRandomScheduler(3, 256), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 400000, CheckSafety: true,
	})
	if res.SafetyViolation != nil {
		t.Fatal(res.SafetyViolation)
	}
	if !res.Converged {
		t.Fatal("multi-component world did not converge")
	}
	if w.GoneCount() != 4 {
		t.Fatalf("gone = %d, want 4", w.GoneCount())
	}
	// The two components must still be separate: no cross-edges appeared.
	pg := w.PG()
	for _, a := range ringA {
		for _, b := range ringB {
			if w.LifeOf(a) != sim.Gone && w.LifeOf(b) != sim.Gone && pg.SameWeakComponent(a, b) {
				t.Fatal("components merged — the protocol invented cross-component references")
			}
		}
	}
}

// Property: from any seeded random scenario, the run converges, safety
// holds, Φ ends at zero, and anchors are consistent.
func TestQuickConvergenceProperty(t *testing.T) {
	f := func(seedRaw uint16, nRaw, fracRaw uint8) bool {
		n := 4 + int(nRaw)%12
		topo := churn.Topology(int(seedRaw) % 8)
		if topo == churn.TopoHypercube {
			// Hypercubes exist only at power-of-two sizes.
			n = 1 << (2 + int(nRaw)%2)
		}
		frac := float64(fracRaw%90) / 100
		cfg := churn.Config{
			N: n, Topology: topo, LeaveFraction: frac,
			Pattern: churn.LeavePattern(int(seedRaw) % 3),
			Corrupt: churn.Corruption{
				FlipBeliefs:   float64(seedRaw%100) / 150,
				RandomAnchors: float64(seedRaw%70) / 100,
				JunkMessages:  int(seedRaw % 12),
			},
			Oracle: oracle.Single{}, Seed: int64(seedRaw),
		}
		s := churn.Build(cfg)
		sched := sim.NewRandomScheduler(int64(seedRaw), 256)
		res := sim.Run(s.World, sched, sim.RunOptions{
			Variant: sim.FDP, MaxSteps: 600000, CheckSafety: true,
		})
		if res.SafetyViolation != nil || !res.Converged {
			return false
		}
		// Closure: legitimacy persists, and residual invalid information
		// (legitimacy does not require Φ = 0) eventually vanishes.
		budget := 2000 * n
		for i := 0; i < budget; i++ {
			if core.Phi(s.World) == 0 && core.AnchorsConsistent(s.World) {
				break
			}
			a, ok := sched.Next(s.World)
			if !ok {
				break
			}
			s.World.Execute(a)
		}
		return s.World.Legitimate(sim.FDP) &&
			core.Phi(s.World) == 0 && core.AnchorsConsistent(s.World)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: a leaving process never stores ordinary neighbors after
// processing any message sequence (its N only refills transiently between
// funnel timeouts; after a timeout it is empty again).
func TestQuickLeavingFunnelsEverything(t *testing.T) {
	f := func(seedRaw uint16) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		space := ref.NewSpace()
		u := space.New()
		others := space.NewN(5)
		p := core.New(core.VariantFDP)
		// Arbitrary initial neighborhood with arbitrary beliefs.
		for _, v := range others {
			if rng.Intn(2) == 0 {
				belief := sim.Staying
				if rng.Intn(2) == 0 {
					belief = sim.Leaving
				}
				p.SetNeighbor(v, belief)
			}
		}
		ctx := &countingCtx{self: u}
		p.Timeout(ctx)
		return len(p.NeighborRefs()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type countingCtx struct {
	self ref.Ref
	sent int
}

func (c *countingCtx) Self() ref.Ref             { return c.self }
func (c *countingCtx) Mode() sim.Mode            { return sim.Leaving }
func (c *countingCtx) Send(ref.Ref, sim.Message) { c.sent++ }
func (c *countingCtx) Exit()                     {}
func (c *countingCtx) Sleep()                    {}
func (c *countingCtx) OracleSays() bool          { return false }

// Property: handler actions never store a reference to the process itself.
func TestQuickNoSelfReferences(t *testing.T) {
	f := func(seedRaw uint16) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		space := ref.NewSpace()
		u := space.New()
		others := space.NewN(4)
		p := core.New(core.VariantFDP)
		mode := sim.Staying
		if rng.Intn(2) == 0 {
			mode = sim.Leaving
		}
		ctx := &modeCtx{self: u, mode: mode}
		labels := []string{core.LabelPresent, core.LabelForward}
		for step := 0; step < 30; step++ {
			var v ref.Ref
			if rng.Intn(4) == 0 {
				v = u // deliberately feed self-references
			} else {
				v = others[rng.Intn(len(others))]
			}
			claim := sim.Staying
			if rng.Intn(2) == 0 {
				claim = sim.Leaving
			}
			p.Deliver(ctx, sim.NewMessage(labels[rng.Intn(2)], sim.RefInfo{Ref: v, Mode: claim}))
		}
		for _, r := range p.Refs() {
			if r == u {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

type modeCtx struct {
	self ref.Ref
	mode sim.Mode
}

func (c *modeCtx) Self() ref.Ref             { return c.self }
func (c *modeCtx) Mode() sim.Mode            { return c.mode }
func (c *modeCtx) Send(ref.Ref, sim.Message) {}
func (c *modeCtx) Exit()                     {}
func (c *modeCtx) Sleep()                    {}
func (c *modeCtx) OracleSays() bool          { return false }
