package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// recCtx is a sim.Context that records what an action did — every send with
// its parameter list, exit, sleep — and bounces a send now and then, the way
// both engines report a gone target: Undeliverable runs inside the sending
// action.
type recCtx struct {
	self   ref.Ref
	mode   sim.Mode
	oracle bool
	rng    *rand.Rand
	bounce func(ctx sim.Context, to ref.Ref, msg sim.Message)
	did    []string
}

func (c *recCtx) Self() ref.Ref    { return c.self }
func (c *recCtx) Mode() sim.Mode   { return c.mode }
func (c *recCtx) Exit()            { c.did = append(c.did, "exit") }
func (c *recCtx) Sleep()           { c.did = append(c.did, "sleep") }
func (c *recCtx) OracleSays() bool { return c.oracle }
func (c *recCtx) Send(to ref.Ref, msg sim.Message) {
	c.did = append(c.did, fmt.Sprintf("%v<-%s%v", to, msg.Label, msg.Refs))
	if to != c.self && c.rng.Intn(4) == 0 {
		c.bounce(c, to, msg)
	}
}

// TestRefsContractUnderEveryMutator drives random sequences over everything
// that can change a Proc's state — scenario construction, the three actions,
// bounces, cloning — against mapProc, the map-based model, fed the same
// operations. After every step the two must have done the same things in the
// same order (sends with their parameters, exit, sleep), NeighborRefs, Refs,
// Beliefs and NeighborBeliefs must equal the model's sorted image, and
// AppendFingerprint the model's rendering. The sim.Protocol.Refs contract is
// checked on the way: every slice handed out earlier still holds the values
// it had then, and a Proc left behind by CloneProtocol — either side of the
// clone — never moves again.
func TestRefsContractUnderEveryMutator(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space := ref.NewSpace()
		u := space.New()
		pool := append(space.NewN(6), u, ref.Nil) // self-references and ⊥ are fed too
		variant := core.Variant(seed % 2)
		p, m := core.New(variant), newMapProc(variant)
		pick := func() ref.Ref { return pool[rng.Intn(len(pool))] }
		belief := func() sim.Mode { return sim.Mode(rng.Intn(2)) }
		mode := belief() // both modes over the seeds
		type handout struct{ got, was []ref.Ref }
		var held []handout
		type leftBehind struct {
			p  *core.Proc
			fp string
		}
		var left []leftBehind
		for step := 0; step < 120; step++ {
			// Both sides see the same oracle answer and, as long as they send
			// the same messages, the same bounces.
			bounceSeed, oracle := rng.Int63(), rng.Intn(2) == 0
			pc := &recCtx{self: u, mode: mode, oracle: oracle, rng: rand.New(rand.NewSource(bounceSeed))}
			mc := &recCtx{self: u, mode: mode, oracle: oracle, rng: rand.New(rand.NewSource(bounceSeed))}
			pc.bounce = func(ctx sim.Context, to ref.Ref, msg sim.Message) { p.Undeliverable(ctx, to, msg) }
			mc.bounce = func(ctx sim.Context, to ref.Ref, msg sim.Message) { m.undeliverable(ctx, to, msg) }
			op := rng.Intn(10)
			switch op {
			case 0:
				p.Timeout(pc)
				m.timeout(mc)
			case 1, 2, 3, 4:
				label := core.LabelPresent
				if op > 2 {
					label = core.LabelForward
				}
				msg := msg1(label, pick(), belief())
				p.Deliver(pc, msg)
				m.deliver(mc, msg)
			case 5:
				to := pick()
				if rng.Intn(2) == 0 && !p.Anchor().IsNil() {
					to = p.Anchor()
				}
				msg := msg1(core.LabelForward, pick(), belief())
				p.Undeliverable(pc, to, msg)
				m.undeliverable(mc, to, msg)
			case 6:
				v, b := pick(), belief()
				p.SetNeighbor(v, b)
				m.setNeighbor(v, b)
			case 7:
				v := pick()
				p.RemoveNeighbor(v)
				delete(m.n, v)
			case 8:
				v, b := pick(), belief()
				if rng.Intn(2) == 0 {
					p.SetAnchor(v, b)
					m.setAnchor(v, b)
				} else if got, want := p.RepointAnchor(v, b), m.setAnchor(v, b); got != want {
					t.Fatalf("seed %d step %d: RepointAnchor displaced %v, model %v", seed, step, got, want)
				}
			case 9:
				// Go on with the clone or with the original; the other one is
				// left behind and must stay as it is.
				c := p.CloneProtocol().(*core.Proc)
				if rng.Intn(2) == 0 {
					p, c = c, p
				}
				left = append(left, leftBehind{c, string(c.AppendFingerprint(nil))})
				m = m.clone()
			}
			if !slices.Equal(pc.did, mc.did) {
				t.Fatalf("seed %d step %d (op %d, %v): did %v, model did %v", seed, step, op, mode, pc.did, mc.did)
			}
			nbrs, all := p.NeighborRefs(), p.Refs()
			if !slices.Equal(nbrs, m.neighborRefs()) || !slices.Equal(all, m.refs()) {
				t.Fatalf("seed %d step %d (op %d): NeighborRefs %v Refs %v, model %v + anchor %v",
					seed, step, op, nbrs, all, m.neighborRefs(), m.anchor)
			}
			if got, want := p.Beliefs(), m.beliefs(); !slices.Equal(got, want) ||
				!slices.Equal(p.NeighborBeliefs(), want[:len(nbrs)]) || p.Anchor() != m.anchor || p.AnchorBelief() != m.anchorMode {
				t.Fatalf("seed %d step %d (op %d): Beliefs %v anchor %v:%v, model %v anchor %v:%v",
					seed, step, op, got, p.Anchor(), p.AnchorBelief(), want, m.anchor, m.anchorMode)
			}
			if got, want := string(p.AppendFingerprint(nil)), m.fingerprint(); got != want {
				t.Fatalf("seed %d step %d (op %d): fingerprint %q, model %q", seed, step, op, got, want)
			}
			for i, h := range held {
				if !slices.Equal(h.got, h.was) {
					t.Fatalf("seed %d step %d (op %d): slice handed out at step %d changed from %v to %v",
						seed, step, op, i/2, h.was, h.got)
				}
			}
			held = append(held, handout{nbrs, slices.Clone(nbrs)}, handout{all, slices.Clone(all)})
			for _, l := range left {
				if got := string(l.p.AppendFingerprint(nil)); got != l.fp {
					t.Fatalf("seed %d step %d (op %d): a Proc left behind by CloneProtocol moved from %q to %q",
						seed, step, op, l.fp, got)
				}
			}
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

// TestSettledActionsAllocateNothing pins the allocation-free action path: the
// timeout of a settled staying process — a self-introduction to every
// neighbour, each carrying the one shared list that names only the sender —
// and the delivery of a present for a reference already stored. First the
// protocol's own share, against a context that discards sends; then the same
// actions through World.Execute with the degree ledger live and every channel
// already grown to what a round needs.
func TestSettledActionsAllocateNothing(t *testing.T) {
	t.Run("state=ledger", settledActionsAllocateNothing)
}

func settledActionsAllocateNothing(t *testing.T) {
	space := ref.NewSpace()
	nodes := space.NewN(6)
	w := sim.NewWorld(oracle.Single{})
	procs := make([]*core.Proc, len(nodes))
	for i, r := range nodes {
		procs[i] = core.New(core.VariantFDP)
		w.AddProcess(r, sim.Staying, procs[i])
	}
	for i, p := range procs {
		for j, r := range nodes {
			if i != j {
				p.SetNeighbor(r, sim.Staying)
			}
		}
	}
	u, p := nodes[0], procs[0]
	ctx := &modeCtx{self: u, mode: sim.Staying}
	intro := sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: nodes[1], Mode: sim.Staying})
	p.Timeout(ctx) // builds the shared list
	if n := testing.AllocsPerRun(100, func() { p.Timeout(ctx) }); n != 0 {
		t.Errorf("Timeout of a settled staying process allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.Deliver(ctx, intro) }); n != 0 {
		t.Errorf("Deliver of a present for a stored reference allocates %.0f times", n)
	}

	// Seed the ledger every step then pays the upkeep of.
	w.SealInitialState()
	round := func() {
		w.Execute(sim.Action{Proc: u, IsTimeout: true})
		for _, v := range nodes[1:] {
			w.Execute(sim.Action{Proc: v, MsgIndex: 0})
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("one timeout and its %d deliveries through World.Execute allocate %.0f times", len(nodes)-1, n)
	}
}

// TestWorldStepAllocBudget holds the sequential engine's cost per Execute,
// degree ledger live, under a random schedule. Once the departures are over
// nothing allocates: what is sent names only its sender and shares one list,
// Refs is the process's own storage, the action context is the world's. What
// still allocates happens while processes leave — the one-element list of a
// present or forward that carries a foreign reference (the funnel of
// Algorithm 1, a delegation to the anchor), the copy a writer takes of a
// handed-out Refs slice, a channel growing — 0.45 allocations per step over
// the departures of an n=2000 run (2.11 with a map for u.N and a list per
// message).
func TestWorldStepAllocBudget(t *testing.T) {
	t.Run("state=ledger", worldStepAllocBudget)
}

func worldStepAllocBudget(t *testing.T) {
	s := churn.Build(churn.Config{
		N: 64, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 7,
	})
	sched := sim.NewRandomScheduler(7, 512)
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
	if got := testing.AllocsPerRun(5000, step); got != 0 {
		t.Fatalf("World.Execute allocates %.0f times per step in the steady state, budget 0", got)
	}
}
