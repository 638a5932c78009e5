package core

import (
	"testing"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// ctxStub records the effects of a single action execution.
type ctxStub struct {
	self   ref.Ref
	mode   sim.Mode
	oracle bool
	sent   []sentMsg
	exited bool
	slept  bool
}

type sentMsg struct {
	to  ref.Ref
	msg sim.Message
}

func (c *ctxStub) Self() ref.Ref    { return c.self }
func (c *ctxStub) Mode() sim.Mode   { return c.mode }
func (c *ctxStub) Exit()            { c.exited = true }
func (c *ctxStub) Sleep()           { c.slept = true }
func (c *ctxStub) OracleSays() bool { return c.oracle }
func (c *ctxStub) Send(to ref.Ref, m sim.Message) {
	c.sent = append(c.sent, sentMsg{to: to, msg: m})
}

func (c *ctxStub) sentTo(to ref.Ref, label string) []sim.Message {
	var out []sim.Message
	for _, s := range c.sent {
		if s.to == to && s.msg.Label == label {
			out = append(out, s.msg)
		}
	}
	return out
}

// neighbors returns u.N with beliefs as a map, for membership checks.
func neighbors(p *Proc) map[ref.Ref]sim.Mode {
	out := make(map[ref.Ref]sim.Mode)
	for _, b := range p.NeighborBeliefs() {
		out[b.Ref] = b.Mode
	}
	return out
}

func refs3() (ref.Ref, ref.Ref, ref.Ref) {
	s := ref.NewSpace()
	return s.New(), s.New(), s.New()
}

// --- Algorithm 1: timeout -------------------------------------------------

func TestTimeoutLeavingAnchorBelievedLeavingIsDropped(t *testing.T) {
	u, a, _ := refs3()
	p := New(VariantFDP)
	p.SetAnchor(a, sim.Leaving)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	p.Timeout(ctx)
	if !p.Anchor().IsNil() {
		t.Fatal("anchor believed leaving must be dropped (lines 1-3)")
	}
	// The reference is not lost: it travels to u itself as present(a).
	msgs := ctx.sentTo(u, LabelPresent)
	if len(msgs) != 1 || msgs[0].Refs[0].Ref != a || msgs[0].Refs[0].Mode != sim.Leaving {
		t.Fatalf("anchor reference must be re-presented to self, got %v", ctx.sent)
	}
}

func TestTimeoutLeavingExitRequiresOracleAndEmptyN(t *testing.T) {
	u, a, _ := refs3()
	p := New(VariantFDP)
	ctx := &ctxStub{self: u, mode: sim.Leaving, oracle: false}
	p.Timeout(ctx)
	if ctx.exited {
		t.Fatal("must not exit when oracle says false")
	}
	ctx = &ctxStub{self: u, mode: sim.Leaving, oracle: true}
	p.Timeout(ctx)
	if !ctx.exited {
		t.Fatal("empty N + oracle true must exit (lines 5-7)")
	}
	// Nonempty N: no exit even with oracle true.
	p2 := New(VariantFDP)
	p2.SetNeighbor(a, sim.Staying)
	ctx = &ctxStub{self: u, mode: sim.Leaving, oracle: true}
	p2.Timeout(ctx)
	if ctx.exited {
		t.Fatal("nonempty N must funnel, not exit")
	}
}

func TestTimeoutLeavingVerifiesAnchor(t *testing.T) {
	u, a, _ := refs3()
	p := New(VariantFDP)
	p.SetAnchor(a, sim.Staying)
	ctx := &ctxStub{self: u, mode: sim.Leaving, oracle: false}
	p.Timeout(ctx)
	msgs := ctx.sentTo(a, LabelPresent)
	if len(msgs) != 1 || msgs[0].Refs[0].Ref != u || msgs[0].Refs[0].Mode != sim.Leaving {
		t.Fatal("leaving process with empty N must verify its anchor (lines 9-10)")
	}
}

func TestTimeoutLeavingFunnelsNeighborhood(t *testing.T) {
	u, a, b := refs3()
	p := New(VariantFDP)
	p.SetNeighbor(a, sim.Staying)
	p.SetNeighbor(b, sim.Leaving)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	p.Timeout(ctx)
	if len(neighbors(p)) != 0 {
		t.Fatal("N must be emptied (line 14)")
	}
	msgs := ctx.sentTo(u, LabelForward)
	if len(msgs) != 2 {
		t.Fatalf("both neighbors must be funnelled to self, got %d", len(msgs))
	}
	// Beliefs travel with the references.
	beliefs := map[ref.Ref]sim.Mode{}
	for _, m := range msgs {
		beliefs[m.Refs[0].Ref] = m.Refs[0].Mode
	}
	if beliefs[a] != sim.Staying || beliefs[b] != sim.Leaving {
		t.Fatal("funnelled references must carry the stored beliefs")
	}
}

func TestTimeoutStayingDropsAnchorAndLeavingNeighbors(t *testing.T) {
	u, a, b := refs3()
	p := New(VariantFDP)
	p.SetAnchor(a, sim.Staying)
	p.SetNeighbor(b, sim.Leaving)
	ctx := &ctxStub{self: u, mode: sim.Staying}
	p.Timeout(ctx)
	if !p.Anchor().IsNil() {
		t.Fatal("staying process must clear its anchor (lines 16-18)")
	}
	if len(ctx.sentTo(u, LabelPresent)) != 0 {
		t.Fatal("staying process must not send its anchor to itself: the self-present " +
			"deletes the only copy and can be burned on delivery (anchor-reintegration-burn)")
	}
	if got := neighbors(p); len(got) != 1 || got[a] != sim.Staying {
		t.Fatalf("staying anchor must be folded into n, got %v", got)
	}
	if len(ctx.sentTo(a, LabelPresent)) != 1 {
		t.Fatal("reintegrated anchor must receive the periodic self-introduction")
	}
	// b still receives present(u): reversal.
	msgs := ctx.sentTo(b, LabelPresent)
	if len(msgs) != 1 || msgs[0].Refs[0].Ref != u || msgs[0].Refs[0].Mode != sim.Staying {
		t.Fatal("dropped leaving neighbor must receive present(u)")
	}
}

func TestTimeoutStayingSelfIntroducesToAll(t *testing.T) {
	u, a, b := refs3()
	p := New(VariantFDP)
	p.SetNeighbor(a, sim.Staying)
	p.SetNeighbor(b, sim.Staying)
	ctx := &ctxStub{self: u, mode: sim.Staying}
	p.Timeout(ctx)
	if len(ctx.sentTo(a, LabelPresent)) != 1 || len(ctx.sentTo(b, LabelPresent)) != 1 {
		t.Fatal("staying process must self-introduce to every neighbor (line 22)")
	}
	if len(neighbors(p)) != 2 {
		t.Fatal("staying neighbors must be kept")
	}
}

func TestTimeoutFSPSleeps(t *testing.T) {
	u, a, _ := refs3()
	p := New(VariantFSP)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	p.Timeout(ctx)
	if !ctx.slept {
		t.Fatal("FSP leaving process with empty N must sleep")
	}
	if ctx.exited {
		t.Fatal("FSP must never exit")
	}
	// With a nonempty N it funnels first, then sleeps; the self-messages
	// will wake it.
	p2 := New(VariantFSP)
	p2.SetNeighbor(a, sim.Staying)
	ctx = &ctxStub{self: u, mode: sim.Leaving}
	p2.Timeout(ctx)
	if !ctx.slept || len(ctx.sentTo(u, LabelForward)) != 1 {
		t.Fatal("FSP funnel+sleep broken")
	}
}

func TestTimeoutFSPStayingNeverSleeps(t *testing.T) {
	u, a, _ := refs3()
	p := New(VariantFSP)
	p.SetNeighbor(a, sim.Staying)
	ctx := &ctxStub{self: u, mode: sim.Staying}
	p.Timeout(ctx)
	if ctx.slept {
		t.Fatal("staying processes never sleep")
	}
}

// --- Algorithm 2: present -------------------------------------------------

func deliver(p *Proc, ctx *ctxStub, label string, v ref.Ref, claim sim.Mode) {
	p.Deliver(ctx, sim.NewMessage(label, sim.RefInfo{Ref: v, Mode: claim}))
}

func TestPresentClearsLeavingAnchor(t *testing.T) {
	u, a, _ := refs3()
	p := New(VariantFDP)
	p.SetAnchor(a, sim.Staying)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p, ctx, LabelPresent, a, sim.Leaving)
	if !p.Anchor().IsNil() {
		t.Fatal("present(anchor) with claim leaving must clear the anchor (lines 1-2)")
	}
}

func TestPresentLeavingToLeaving(t *testing.T) {
	u, v, _ := refs3()
	p := New(VariantFDP)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p, ctx, LabelPresent, v, sim.Leaving)
	msgs := ctx.sentTo(v, LabelForward)
	if len(msgs) != 1 || msgs[0].Refs[0].Ref != u || msgs[0].Refs[0].Mode != sim.Leaving {
		t.Fatal("leaving u must bounce forward(u) to leaving v (line 5)")
	}
}

func TestPresentLeavingToStayingShedsReference(t *testing.T) {
	u, v, _ := refs3()
	p := New(VariantFDP)
	p.SetNeighbor(v, sim.Staying) // stale belief
	ctx := &ctxStub{self: u, mode: sim.Staying}
	deliver(p, ctx, LabelPresent, v, sim.Leaving)
	if len(neighbors(p)) != 0 {
		t.Fatal("staying u must shed the leaving reference (lines 7-8)")
	}
	if len(ctx.sentTo(v, LabelForward)) != 1 {
		t.Fatal("staying u must reverse the edge with forward(u) (line 9)")
	}
}

func TestPresentStayingToLeavingAdoptsAnchor(t *testing.T) {
	u, v, w := refs3()
	p := New(VariantFDP)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p, ctx, LabelPresent, v, sim.Staying)
	if p.Anchor() != v || p.AnchorBelief() != sim.Staying {
		t.Fatal("anchorless leaving u must adopt staying v as anchor (line 15)")
	}
	if len(ctx.sent) != 0 {
		t.Fatal("adoption sends nothing")
	}
	// With an anchor already set, v gets forward(u) instead.
	ctx2 := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p, ctx2, LabelPresent, w, sim.Staying)
	if p.Anchor() != v {
		t.Fatal("anchor must not change")
	}
	if len(ctx2.sentTo(w, LabelForward)) != 1 {
		t.Fatal("anchored leaving u must send forward(u) to v (line 13)")
	}
}

func TestPresentStayingToStayingStores(t *testing.T) {
	u, v, _ := refs3()
	p := New(VariantFDP)
	ctx := &ctxStub{self: u, mode: sim.Staying}
	deliver(p, ctx, LabelPresent, v, sim.Staying)
	if got := neighbors(p)[v]; got != sim.Staying {
		t.Fatal("staying u must store staying v (line 17)")
	}
	// Duplicate delivery fuses (set semantics).
	deliver(p, ctx, LabelPresent, v, sim.Staying)
	if len(neighbors(p)) != 1 {
		t.Fatal("duplicate reference must fuse")
	}
}

func TestPresentRefreshesStoredBelief(t *testing.T) {
	u, v, _ := refs3()
	p := New(VariantFDP)
	p.SetNeighbor(v, sim.Staying)
	ctx := &ctxStub{self: u, mode: sim.Staying}
	deliver(p, ctx, LabelPresent, v, sim.Leaving)
	if _, still := neighbors(p)[v]; still {
		t.Fatal("belief refresh must lead to shedding the now-leaving neighbor")
	}
}

func TestPresentSelfReferenceDiscarded(t *testing.T) {
	u, _, _ := refs3()
	p := New(VariantFDP)
	ctx := &ctxStub{self: u, mode: sim.Staying}
	deliver(p, ctx, LabelPresent, u, sim.Staying)
	if len(neighbors(p)) != 0 || len(ctx.sent) != 0 {
		t.Fatal("self-references must be discarded")
	}
}

// --- Algorithm 3: forward -------------------------------------------------

func TestForwardLeavingNoAnchorBounces(t *testing.T) {
	u, v, _ := refs3()
	p := New(VariantFDP)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p, ctx, LabelForward, v, sim.Leaving)
	if len(ctx.sentTo(v, LabelForward)) != 1 {
		t.Fatal("anchorless leaving u must bounce forward(u) to v (line 6)")
	}
}

func TestForwardLeavingWithAnchorDelegates(t *testing.T) {
	u, v, a := refs3()
	p := New(VariantFDP)
	p.SetAnchor(a, sim.Staying)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p, ctx, LabelForward, v, sim.Leaving)
	msgs := ctx.sentTo(a, LabelForward)
	if len(msgs) != 1 || msgs[0].Refs[0].Ref != v || msgs[0].Refs[0].Mode != sim.Leaving {
		t.Fatal("anchored leaving u must delegate v to its anchor (line 8)")
	}
	// The reference is not stored: Φ cannot increase.
	if len(neighbors(p)) != 0 {
		t.Fatal("delegated reference must not be stored")
	}
}

func TestForwardStayingShedsLeaving(t *testing.T) {
	u, v, _ := refs3()
	p := New(VariantFDP)
	p.SetNeighbor(v, sim.Staying)
	ctx := &ctxStub{self: u, mode: sim.Staying}
	deliver(p, ctx, LabelForward, v, sim.Leaving)
	if len(neighbors(p)) != 0 || len(ctx.sentTo(v, LabelForward)) != 1 {
		t.Fatal("staying u must shed and reverse (lines 10-12)")
	}
}

func TestForwardStayingClaimAdoptionAndDelegation(t *testing.T) {
	u, v, a := refs3()
	// Anchorless leaving u adopts.
	p := New(VariantFDP)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p, ctx, LabelForward, v, sim.Staying)
	if p.Anchor() != v {
		t.Fatal("anchorless leaving u must adopt v (line 18)")
	}
	// Anchored leaving u delegates to the anchor.
	p2 := New(VariantFDP)
	p2.SetAnchor(a, sim.Staying)
	ctx2 := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p2, ctx2, LabelForward, v, sim.Staying)
	if len(ctx2.sentTo(a, LabelForward)) != 1 {
		t.Fatal("anchored leaving u must delegate v to anchor (line 16)")
	}
	// Staying u stores.
	p3 := New(VariantFDP)
	ctx3 := &ctxStub{self: u, mode: sim.Staying}
	deliver(p3, ctx3, LabelForward, v, sim.Staying)
	if neighbors(p3)[v] != sim.Staying {
		t.Fatal("staying u must store v (line 20)")
	}
}

func TestForwardClearsLeavingAnchor(t *testing.T) {
	u, a, _ := refs3()
	p := New(VariantFDP)
	p.SetAnchor(a, sim.Staying)
	ctx := &ctxStub{self: u, mode: sim.Leaving}
	deliver(p, ctx, LabelForward, a, sim.Leaving)
	if !p.Anchor().IsNil() {
		t.Fatal("forward(anchor) claiming leaving must clear the anchor (lines 1-2)")
	}
	// And then falls through: claim leaving + mode leaving + anchor now ⊥:
	// bounce forward(u) to a.
	if len(ctx.sentTo(a, LabelForward)) != 1 {
		t.Fatal("cleared-anchor fallthrough must bounce forward(u)")
	}
}

func TestUnknownLabelAndMalformedIgnored(t *testing.T) {
	u, v, _ := refs3()
	p := New(VariantFDP)
	ctx := &ctxStub{self: u, mode: sim.Staying}
	p.Deliver(ctx, sim.NewMessage("bogus", sim.RefInfo{Ref: v, Mode: sim.Staying}))
	p.Deliver(ctx, sim.NewMessage(LabelPresent)) // no refs
	if len(neighbors(p)) != 0 || len(ctx.sent) != 0 {
		t.Fatal("unknown/malformed messages must be ignored")
	}
}

func TestRefsIncludesAnchor(t *testing.T) {
	u, v, a := refs3()
	_ = u
	p := New(VariantFDP)
	p.SetNeighbor(v, sim.Staying)
	p.SetAnchor(a, sim.Staying)
	rs := p.Refs()
	if len(rs) != 2 {
		t.Fatalf("Refs must include N and anchor, got %v", rs)
	}
	bs := p.Beliefs()
	if len(bs) != 2 {
		t.Fatalf("Beliefs must include N and anchor, got %v", bs)
	}
}

func TestVariantAccessors(t *testing.T) {
	if New(VariantFDP).UsesSleep() || !New(VariantFSP).UsesSleep() {
		t.Fatal("UsesSleep wrong")
	}
	if VariantFDP.String() != "FDP" || VariantFSP.String() != "FSP" {
		t.Fatal("Variant names wrong")
	}
}

func TestAccessorsAndClone(t *testing.T) {
	u, v, a := refs3()
	_ = u
	p := New(VariantFSP)
	if p.Variant() != VariantFSP {
		t.Fatal("Variant accessor wrong")
	}
	p.SetNeighbor(v, sim.Staying)
	p.SetNeighbor(ref.Nil, sim.Staying) // ⊥ must be ignored
	p.SetAnchor(a, sim.Leaving)
	if len(neighbors(p)) != 1 {
		t.Fatal("⊥ stored as neighbor")
	}
	p.RemoveNeighbor(v)
	if len(neighbors(p)) != 0 {
		t.Fatal("RemoveNeighbor broken")
	}
	p.SetNeighbor(v, sim.Leaving)
	c := p.CloneProtocol().(*Proc)
	if c.Variant() != VariantFSP || c.Anchor() != a || neighbors(c)[v] != sim.Leaving {
		t.Fatal("clone incomplete")
	}
	c.SetNeighbor(v, sim.Staying)
	if neighbors(p)[v] != sim.Leaving {
		t.Fatal("clone not independent")
	}
	if string(p.AppendFingerprint(nil)) == string(c.AppendFingerprint(nil)) {
		t.Fatal("fingerprint must reflect belief changes")
	}
}
