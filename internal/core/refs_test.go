package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// bouncingCtx is a sim.Context whose sends bounce now and then, the way both
// engines report a gone target: Undeliverable runs inside the sending action.
type bouncingCtx struct {
	self ref.Ref
	mode sim.Mode
	p    *core.Proc
	rng  *rand.Rand
}

func (c *bouncingCtx) Self() ref.Ref    { return c.self }
func (c *bouncingCtx) Mode() sim.Mode   { return c.mode }
func (c *bouncingCtx) Exit()            {}
func (c *bouncingCtx) Sleep()           {}
func (c *bouncingCtx) OracleSays() bool { return false }
func (c *bouncingCtx) Send(to ref.Ref, msg sim.Message) {
	if to != c.self && c.rng.Intn(4) == 0 {
		c.p.Undeliverable(c, to, msg)
	}
}

// scratchRefs enumerates p's stored references from its other accessors:
// u.N in ref.Sort order, then the anchor.
func scratchRefs(p *core.Proc) (nbrs, all []ref.Ref) {
	for r := range p.Neighbors() {
		nbrs = append(nbrs, r)
	}
	ref.Sort(nbrs)
	all = slices.Clone(nbrs)
	if a := p.Anchor(); !a.IsNil() {
		all = append(all, a)
	}
	return nbrs, all
}

// TestRefsContractUnderEveryMutator drives random sequences over everything
// that can change a Proc's stored references and checks, after every step,
// the two halves of the sim.Protocol.Refs contract: NeighborRefs and Refs
// equal a from-scratch sorted enumeration of u.N plus the anchor, and every
// slice handed out earlier still holds the values it had then.
func TestRefsContractUnderEveryMutator(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space := ref.NewSpace()
		u := space.New()
		pool := append(space.NewN(6), u) // self-references are fed too
		p := core.New(core.VariantFDP)
		pick := func() ref.Ref { return pool[rng.Intn(len(pool))] }
		belief := func() sim.Mode {
			if rng.Intn(2) == 0 {
				return sim.Leaving
			}
			return sim.Staying
		}
		ctx := &bouncingCtx{self: u, mode: belief(), p: p, rng: rng} // both modes over the seeds
		type handout struct{ got, was []ref.Ref }
		var held []handout
		for step := 0; step < 120; step++ {
			op := rng.Intn(10)
			switch op {
			case 0:
				p.Timeout(ctx)
			case 1, 2:
				p.Deliver(ctx, sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: pick(), Mode: belief()}))
			case 3, 4:
				p.Deliver(ctx, sim.NewMessage(core.LabelForward, sim.RefInfo{Ref: pick(), Mode: belief()}))
			case 5:
				to := pick()
				if rng.Intn(2) == 0 && !p.Anchor().IsNil() {
					to = p.Anchor()
				}
				p.Undeliverable(ctx, to, sim.NewMessage(core.LabelForward, sim.RefInfo{Ref: pick(), Mode: belief()}))
			case 6:
				p.SetNeighbor(pick(), belief())
			case 7:
				p.RemoveNeighbor(pick())
			case 8:
				if rng.Intn(2) == 0 {
					p.SetAnchor(pick(), belief())
				} else {
					p.RepointAnchor(pick(), belief())
				}
			case 9:
				// Go on with the clone; the original's slices stay held.
				p = p.CloneProtocol().(*core.Proc)
				ctx.p = p
			}
			wantNbrs, wantAll := scratchRefs(p)
			nbrs, all := p.NeighborRefs(), p.Refs()
			if !slices.Equal(nbrs, wantNbrs) || !slices.Equal(all, wantAll) {
				t.Fatalf("seed %d step %d (op %d): NeighborRefs %v Refs %v, stored %v + anchor %v",
					seed, step, op, nbrs, all, wantNbrs, p.Anchor())
			}
			for i, h := range held {
				if !slices.Equal(h.got, h.was) {
					t.Fatalf("seed %d step %d (op %d): slice handed out at step %d changed from %v to %v",
						seed, step, op, i/2, h.was, h.got)
				}
			}
			held = append(held, handout{nbrs, slices.Clone(nbrs)}, handout{all, slices.Clone(all)})
		}
	}
}

// TestRefsOnUnchangedProcIsFree pins the cost side of the contract: on a
// process whose stored references did not change, Refs neither allocates nor
// builds a new slice — not even after a belief refresh on a stored key, which
// changes a mode and no reference, or after shedding a reference it never
// held.
func TestRefsOnUnchangedProcIsFree(t *testing.T) {
	space := ref.NewSpace()
	u := space.New()
	others := space.NewN(5)
	p := core.New(core.VariantFDP)
	for _, v := range others[:4] {
		p.SetNeighbor(v, sim.Staying)
	}
	p.SetAnchor(others[4], sim.Staying)
	before := p.Refs()
	if n := testing.AllocsPerRun(100, func() { _ = p.Refs(); _ = p.NeighborRefs() }); n != 0 {
		t.Fatalf("Refs on an unchanged Proc allocates %.0f times per call", n)
	}
	ctx := &modeCtx{self: u, mode: sim.Staying}
	p.Deliver(ctx, sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: others[0], Mode: sim.Staying}))
	if after := p.Refs(); &after[0] != &before[0] || len(after) != len(before) {
		t.Fatal("a belief refresh on a stored key rebuilt the Refs slice")
	}
	// A staying process answers a leaving claim with a reversal held or not;
	// for a reference it does not hold nothing stored changes.
	stranger := space.New()
	p.Deliver(ctx, sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: stranger, Mode: sim.Leaving}))
	p.Deliver(ctx, sim.NewMessage(core.LabelForward, sim.RefInfo{Ref: stranger, Mode: sim.Leaving}))
	p.RemoveNeighbor(stranger)
	if after := p.Refs(); &after[0] != &before[0] || len(after) != len(before) {
		t.Fatal("shedding a reference that was not held rebuilt the Refs slice")
	}
}

// TestWorldStepAllocBudget holds the sequential engine's steady-state cost
// per Execute with the process graph live. BenchmarkWorldStep reads 5
// allocs/op before core.Proc served Refs from its copy-on-write view and 2
// after (n=64: 109 → 38 B/op): the action context and one message's reference
// list. A per-action enumeration that allocates and sorts again costs 3 more
// and fails this.
func TestWorldStepAllocBudget(t *testing.T) {
	s := churn.Build(churn.Config{
		N: 64, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 7,
	})
	sched := sim.NewRandomScheduler(7, 512)
	s.World.PG() // seed the incremental graph: every step pays its upkeep
	step := func() {
		a, ok := sched.Next(s.World)
		if !ok {
			t.Fatal("quiescent")
		}
		s.World.Execute(a)
	}
	for i := 0; i < 20000; i++ { // past the departures, into the steady state
		step()
	}
	const budget = 3.0
	if got := testing.AllocsPerRun(5000, step); got > budget {
		t.Fatalf("World.Execute allocates %.2f times per step in the steady state, budget %.1f", got, budget)
	}
}
