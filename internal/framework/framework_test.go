package framework

import (
	"slices"
	"testing"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// runToLegitAndTarget drives the scenario until the FDP legitimacy
// predicate holds AND the staying processes reach P's target topology.
func runToLegitAndTarget(t *testing.T, s *Scenario, sched sim.Scheduler, maxSteps int) int {
	t.Helper()
	variant := sim.FDP
	if s.Config.Variant == core.VariantFSP {
		variant = sim.FSP
	}
	check := len(s.Nodes)
	for s.World.Steps() < maxSteps {
		if s.World.Steps()%check == 0 {
			if !s.World.RelevantComponentsIntact() {
				t.Fatalf("SAFETY violated at step %d (seed %d)", s.World.Steps(), s.Config.Seed)
			}
			if s.World.Legitimate(variant) && s.InTarget() {
				return s.World.Steps()
			}
		}
		a, ok := sched.Next(s.World)
		if !ok {
			break
		}
		s.World.Execute(a)
	}
	if s.World.Legitimate(variant) && s.InTarget() {
		return s.World.Steps()
	}
	t.Fatalf("no convergence in %d steps (seed %d, overlay %v): legit=%v target=%v leavers-left=%d pending=%d",
		s.World.Steps(), s.Config.Seed, s.Config.Overlay,
		s.World.Legitimate(variant), s.InTarget(), s.World.LeavingRemaining(), pendingTotal(s))
	return 0
}

func pendingTotal(s *Scenario) int {
	total := 0
	for _, w := range s.Wrappers {
		total += w.PendingCount()
	}
	return total
}

// Theorem 4 for all three overlay families: P′ solves the FDP and still
// solves P's own problem (staying processes reach the target topology).
func TestTheorem4AllOverlays(t *testing.T) {
	for _, kind := range []OverlayKind{OverlayLinearize, OverlayRing, OverlaySkip, OverlayClique} {
		for seed := int64(0); seed < 3; seed++ {
			s := Build(Config{
				N: 12, Overlay: kind, LeaveFraction: 0.4,
				Oracle: oracle.Single{}, Seed: seed, ExtraEdges: 6,
			})
			steps := runToLegitAndTarget(t, s, sim.NewRandomScheduler(seed, 256), 2000000)
			if s.World.GoneCount() != s.Leaving.Len() {
				t.Fatalf("%v seed %d: %d of %d leavers gone", kind, seed,
					s.World.GoneCount(), s.Leaving.Len())
			}
			_ = steps
		}
	}
}

// Self-stabilization of P′: corrupted anchors and junk pending entries with
// wrong "verified" modes.
func TestTheorem4Corrupted(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		s := Build(Config{
			N: 10, Overlay: OverlayLinearize, LeaveFraction: 0.4,
			Oracle: oracle.Single{}, Seed: seed, ExtraEdges: 4,
			CorruptAnchors: 0.6, JunkPending: 8,
		})
		runToLegitAndTarget(t, s, sim.NewRandomScheduler(seed+100, 256), 2000000)
	}
}

// The FSP flavour of the framework: leavers hibernate instead of exiting.
func TestFrameworkFSP(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		s := Build(Config{
			N: 10, Overlay: OverlayLinearize, LeaveFraction: 0.4,
			Variant: core.VariantFSP, Seed: seed, ExtraEdges: 4,
		})
		runToLegitAndTarget(t, s, sim.NewRandomScheduler(seed, 256), 2000000)
		if s.World.GoneCount() != 0 {
			t.Fatalf("seed %d: FSP produced gone processes", seed)
		}
		hib := s.World.Hibernating()
		for _, r := range s.Nodes {
			if s.Leaving.Has(r) && !hib.Has(r) {
				t.Fatalf("seed %d: leaver %v not hibernating", seed, r)
			}
		}
	}
}

// No leavers: P′ must behave exactly like a self-stabilizing P and reach
// the target topology.
func TestFrameworkNoLeaversStillSolvesDP(t *testing.T) {
	s := Build(Config{
		N: 10, Overlay: OverlayLinearize, LeaveFraction: 0,
		Oracle: oracle.Single{}, Seed: 5, ExtraEdges: 5,
	})
	runToLegitAndTarget(t, s, sim.NewRoundScheduler(), 2000000)
}

// Under the round scheduler too (different message orderings).
func TestTheorem4RoundScheduler(t *testing.T) {
	s := Build(Config{
		N: 10, Overlay: OverlayRing, LeaveFraction: 0.3,
		Oracle: oracle.Single{}, Seed: 2, ExtraEdges: 5,
	})
	runToLegitAndTarget(t, s, sim.NewRoundScheduler(), 2000000)
}

// --- Wrapper unit behaviour -------------------------------------------

type fwCtx struct {
	self   ref.Ref
	mode   sim.Mode
	oracle bool
	sent   []struct {
		to  ref.Ref
		msg sim.Message
	}
	exited, slept bool
}

func (c *fwCtx) Self() ref.Ref    { return c.self }
func (c *fwCtx) Mode() sim.Mode   { return c.mode }
func (c *fwCtx) Exit()            { c.exited = true }
func (c *fwCtx) Sleep()           { c.slept = true }
func (c *fwCtx) OracleSays() bool { return c.oracle }
func (c *fwCtx) Send(to ref.Ref, m sim.Message) {
	c.sent = append(c.sent, struct {
		to  ref.Ref
		msg sim.Message
	}{to, m})
}

func (c *fwCtx) labelsTo(to ref.Ref, label string) int {
	n := 0
	for _, s := range c.sent {
		if s.to == to && s.msg.Label == label {
			n++
		}
	}
	return n
}

func mkKeys(nodes []ref.Ref) overlay.Keys {
	k := make(overlay.Keys, len(nodes))
	for i, r := range nodes {
		k[r] = i
	}
	return k
}

func TestPreprocessSavesAndVerifies(t *testing.T) {
	nodes := ref.NewSpace().NewN(4)
	keys := mkKeys(nodes)
	w := New(overlay.NewLinearize(keys), core.VariantFDP)
	lin := w.Overlay().(*overlay.Linearize)
	lin.AddNeighbor(nodes[1])
	lin.AddNeighbor(nodes[2])
	ctx := &fwCtx{self: nodes[0], mode: sim.Staying}
	w.Timeout(ctx) // P-timeout: linearize wants to delegate and self-introduce
	if w.PendingCount() == 0 {
		t.Fatal("P sends must be saved in mlist")
	}
	if ctx.labelsTo(nodes[1], LabelVerify)+ctx.labelsTo(nodes[2], LabelVerify) == 0 {
		t.Fatal("verify messages must go out")
	}
	// No P message may leave before verification.
	for _, s := range ctx.sent {
		if s.msg.Label == overlay.LabelLink {
			t.Fatal("unverified P message escaped preprocess")
		}
	}
}

func TestVerifyIsAnswered(t *testing.T) {
	nodes := ref.NewSpace().NewN(2)
	w := New(overlay.NewCliqueTC(), core.VariantFDP)
	ctx := &fwCtx{self: nodes[0], mode: sim.Staying}
	w.Deliver(ctx, sim.NewMessage(LabelVerify, sim.RefInfo{Ref: nodes[1], Mode: sim.Leaving}))
	if ctx.labelsTo(nodes[1], LabelProcess) != 1 {
		t.Fatal("verify must be answered with process")
	}
	// Leaving processes answer too (otherwise verification deadlocks).
	ctx2 := &fwCtx{self: nodes[0], mode: sim.Leaving}
	w2 := New(overlay.NewCliqueTC(), core.VariantFDP)
	w2.Deliver(ctx2, sim.NewMessage(LabelVerify, sim.RefInfo{Ref: nodes[1], Mode: sim.Staying}))
	if ctx2.labelsTo(nodes[1], LabelProcess) != 1 {
		t.Fatal("leaving processes must answer verify")
	}
}

func TestFlushSendsWhenAllStaying(t *testing.T) {
	nodes := ref.NewSpace().NewN(3)
	w := New(overlay.NewCliqueTC(), core.VariantFDP)
	w.InjectPending(nodes[1], overlay.LabelIntro, []ref.Ref{nodes[2]}, nil)
	ctx := &fwCtx{self: nodes[0], mode: sim.Staying}
	w.Deliver(ctx, sim.NewMessage(LabelProcess, sim.RefInfo{Ref: nodes[1], Mode: sim.Staying}))
	if w.PendingCount() != 1 {
		t.Fatal("entry must wait for all modes")
	}
	w.Deliver(ctx, sim.NewMessage(LabelProcess, sim.RefInfo{Ref: nodes[2], Mode: sim.Staying}))
	if w.PendingCount() != 0 {
		t.Fatal("fully verified staying entry must flush")
	}
	if ctx.labelsTo(nodes[1], overlay.LabelIntro) != 1 {
		t.Fatal("P message must be sent after verification")
	}
}

func TestPostprocessExcludesLeaving(t *testing.T) {
	nodes := ref.NewSpace().NewN(3)
	w := New(overlay.NewCliqueTC(), core.VariantFDP)
	cl := w.Overlay().(*overlay.CliqueTC)
	cl.AddNeighbor(nodes[2])
	w.InjectPending(nodes[1], overlay.LabelIntro, []ref.Ref{nodes[2]}, nil)
	ctx := &fwCtx{self: nodes[0], mode: sim.Staying}
	w.Deliver(ctx, sim.NewMessage(LabelProcess, sim.RefInfo{Ref: nodes[1], Mode: sim.Staying}))
	w.Deliver(ctx, sim.NewMessage(LabelProcess, sim.RefInfo{Ref: nodes[2], Mode: sim.Leaving}))
	if w.PendingCount() != 0 {
		t.Fatal("entry must postprocess")
	}
	if ctx.labelsTo(nodes[1], overlay.LabelIntro) != 0 {
		t.Fatal("message with leaving refs must not be sent")
	}
	if ctx.labelsTo(nodes[2], core.LabelForward) == 0 {
		t.Fatal("leaving ref must receive forward(u)")
	}
	for _, r := range cl.Refs() {
		if r == nodes[2] {
			t.Fatal("leaving ref must be excluded from P")
		}
	}
	// The staying target was reintegrated.
	if !slices.Contains(cl.Refs(), nodes[1]) {
		t.Fatal("staying target must be reintegrated")
	}
}

func TestLeavingReceiverPresentsItself(t *testing.T) {
	nodes := ref.NewSpace().NewN(3)
	w := New(overlay.NewCliqueTC(), core.VariantFDP)
	ctx := &fwCtx{self: nodes[0], mode: sim.Leaving}
	w.Deliver(ctx, sim.Message{Label: overlay.LabelIntro, Refs: []sim.RefInfo{
		{Ref: nodes[1], Mode: sim.Staying}, {Ref: nodes[2], Mode: sim.Staying},
	}})
	if ctx.labelsTo(nodes[1], core.LabelPresent) != 1 || ctx.labelsTo(nodes[2], core.LabelPresent) != 1 {
		t.Fatal("leaving receiver must present itself to all referenced processes")
	}
	if len(w.Overlay().Refs()) != 0 {
		t.Fatal("leaving receiver must not store P references")
	}
}

func TestLeavingTimeoutDissolvesPState(t *testing.T) {
	nodes := ref.NewSpace().NewN(4)
	keys := mkKeys(nodes)
	w := New(overlay.NewLinearize(keys), core.VariantFDP)
	lin := w.Overlay().(*overlay.Linearize)
	lin.AddNeighbor(nodes[1])
	w.InjectPending(nodes[2], overlay.LabelLink, []ref.Ref{nodes[3]}, nil)
	ctx := &fwCtx{self: nodes[0], mode: sim.Leaving, oracle: true}
	w.Timeout(ctx)
	if len(lin.Refs()) != 0 || w.PendingCount() != 0 {
		t.Fatal("leaving timeout must dissolve P state")
	}
	if ctx.exited {
		t.Fatal("must not exit while references are still shed")
	}
	// All stripped refs are still reported as stored (explicit edges).
	refs := ref.NewSet(w.Refs()...)
	for _, r := range []ref.Ref{nodes[1], nodes[2], nodes[3]} {
		if !refs.Has(r) {
			t.Fatalf("shed reference %v lost from Refs()", r)
		}
	}
	// And each got a verify.
	for _, r := range []ref.Ref{nodes[1], nodes[2], nodes[3]} {
		if ctx.labelsTo(r, LabelVerify) != 1 {
			t.Fatalf("shed reference %v not verified", r)
		}
	}
}

func TestLeavingExitsWhenEmptyAndOracleTrue(t *testing.T) {
	nodes := ref.NewSpace().NewN(1)
	w := New(overlay.NewCliqueTC(), core.VariantFDP)
	ctx := &fwCtx{self: nodes[0], mode: sim.Leaving, oracle: true}
	w.Timeout(ctx)
	if !ctx.exited {
		t.Fatal("empty leaving process with oracle true must exit")
	}
}

func TestProcessAnswerRoutesShedRefs(t *testing.T) {
	nodes := ref.NewSpace().NewN(4)
	keys := mkKeys(nodes)
	w := New(overlay.NewLinearize(keys), core.VariantFDP)
	w.Overlay().(*overlay.Linearize).AddNeighbor(nodes[1])
	w.Overlay().(*overlay.Linearize).AddNeighbor(nodes[2])
	ctx := &fwCtx{self: nodes[0], mode: sim.Leaving}
	w.Timeout(ctx) // sheds both
	// First staying answer becomes the anchor.
	w.Deliver(ctx, sim.NewMessage(LabelProcess, sim.RefInfo{Ref: nodes[1], Mode: sim.Staying}))
	if w.Anchor() != nodes[1] {
		t.Fatal("first verified staying ref must become the anchor")
	}
	// Second staying answer is delegated to the anchor.
	w.Deliver(ctx, sim.NewMessage(LabelProcess, sim.RefInfo{Ref: nodes[2], Mode: sim.Staying}))
	if ctx.labelsTo(nodes[1], core.LabelForward) != 1 {
		t.Fatal("subsequent refs must be delegated to the anchor")
	}
	// A leaving answer triggers mutual shedding.
	w.Deliver(ctx, sim.NewMessage(LabelProcess, sim.RefInfo{Ref: nodes[3], Mode: sim.Leaving}))
	if ctx.labelsTo(nodes[3], core.LabelForward) != 1 {
		t.Fatal("leaving refs must get forward(u)")
	}
}

func TestWrapperBeliefsAndVariant(t *testing.T) {
	nodes := ref.NewSpace().NewN(3)
	w := New(overlay.NewCliqueTC(), core.VariantFSP)
	if w.Variant() != core.VariantFSP {
		t.Fatal("variant accessor wrong")
	}
	w.SetAnchor(nodes[1], sim.Staying)
	w.InjectPending(nodes[2], overlay.LabelIntro, nil, map[ref.Ref]sim.Mode{nodes[2]: sim.Leaving})
	bs := w.Beliefs()
	if len(bs) != 2 {
		t.Fatalf("Beliefs = %v, want anchor + 1 verified entry mode", bs)
	}
}
