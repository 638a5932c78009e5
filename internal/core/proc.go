// Package core implements the paper's primary contribution: the
// self-stabilizing protocol for the Finite Departure Problem of Section 3
// (Algorithms 1–3: timeout, present and forward) and its Finite Sleep
// Problem variant (Section 4, last paragraph).
//
// Every branch of the three actions decomposes into one of the four
// primitives of Section 2; the code comments carry the paper's suit
// annotations (♦ Introduction, ♥ Delegation, ♠ Fusion, ♣ Reversal), which
// is what makes Lemma 2 (safety) an instance of Lemma 1.
//
// Protocol state per process u:
//
//   - u.N       — the neighborhood set: all ordinary stored references,
//     each with u's knowledge of that process's mode (u.mode(v));
//   - u.anchor  — a special reference, not in u.N, used only by leaving
//     processes: a process u believes to be staying, to which u delegates
//     every reference it wants to get rid of.
//
// Since the protocol is self-stabilizing, any of this information may
// initially be arbitrary (wrong beliefs, stale anchors, junk in flight).
//
//fdp:decomposable
package core

import (
	"slices"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Message labels of the protocol. A present(v) message introduces the
// reference v to the receiver (Introduction ♦); a forward(v) message
// delegates v to the receiver (Delegation ♥). Both carry the sender's mode
// knowledge of v, and information a process sends about itself is always
// its true mode.
const (
	LabelPresent = "present"
	LabelForward = "forward"
)

// Variant selects the departure flavour.
type Variant uint8

const (
	// VariantFDP uses exit guarded by the oracle (Section 3).
	VariantFDP Variant = iota
	// VariantFSP uses sleep and no oracle (Section 4, last paragraph).
	VariantFSP
)

// String names the variant.
func (v Variant) String() string {
	if v == VariantFDP {
		return "FDP"
	}
	return "FSP"
}

// Proc is one process running the departure protocol.
type Proc struct {
	variant Variant

	// refs is every stored reference, exactly as Refs hands it out: u.N in
	// ref.Sort order, then the anchor if one is stored (⊥ = no such slot).
	// beliefs runs parallel to the u.N part: beliefs[i] is u.mode(refs[i]),
	// so len(refs) > len(beliefs) iff an anchor is stored. The two are
	// written only by store, drop, setAnchor and clearAnchor (New and
	// CloneProtocol fill a fresh Proc).
	refs    []ref.Ref
	beliefs []sim.Mode
	// handedOut says a caller may hold refs' backing array (Refs,
	// NeighborRefs): the next writer that would change one of its elements
	// copies first, so a slice handed out is never written again. Shortening
	// refs writes no element and needs no copy.
	handedOut bool
	// anchorMode is u's belief about the anchor's mode. It outlives the
	// anchor: clearing the anchor leaves it, as it leaves the pacing state.
	anchorMode sim.Mode

	// self holds, per mode, the one-element parameter list of a message that
	// carries only u's own reference — most of what a process sends. Built on
	// first use, never written afterwards (see selfList).
	self [2][]sim.RefInfo

	// verifyGap and sinceVerify pace the anchor re-verification of Algorithm
	// 1 lines 9–10 with exponential backoff: the verification fires on the
	// first eligible timeout after adopting an anchor and then with doubling
	// gaps (capped). Pacing is indistinguishable from a slower timer in the
	// asynchronous model, so the paper's correctness argument is unaffected —
	// but it is what keeps oracles whose guard inspects in-flight state
	// (NIDEC's no-incoming-edges condition) satisfiable under deterministic
	// fair schedulers: an unpaced leaver re-introduces itself every timeout,
	// and a phase-locked schedule can keep that self-introduction in flight
	// at every single oracle query, livelocking the departure (found by the
	// churn fuzzer under both the rounds and fifo schedulers). Both counters
	// reset whenever the anchor changes, so corruption of the pacing state
	// only delays — never prevents — the cycle-dissolving verification.
	verifyGap   int
	sinceVerify int
}

// maxVerifyGap caps the re-verification backoff so a corrupted or
// long-stable anchor is still re-verified within a bounded number of
// timeouts.
const maxVerifyGap = 4096

var (
	_ sim.Protocol             = (*Proc)(nil)
	_ sim.UndeliverableHandler = (*Proc)(nil)
)

// New returns a fresh process state with empty neighborhood and no anchor.
func New(variant Variant) *Proc {
	return &Proc{variant: variant}
}

// NewN returns n fresh process states in one allocation, for a builder that
// seats one on every node of a scenario.
func NewN(variant Variant, n int) []Proc {
	ps := make([]Proc, n)
	for i := range ps {
		ps[i].variant = variant
	}
	return ps
}

// Variant returns the process's departure flavour.
func (p *Proc) Variant() Variant { return p.variant }

// UsesSleep reports whether the process uses the FSP variant.
func (p *Proc) UsesSleep() bool { return p.variant == VariantFSP }

// store, drop, setAnchor and clearAnchor are the only writers of refs and
// beliefs' length once a Proc is built, so the rule that keeps a handed-out
// enumeration intact lives here and nowhere else. They are classified once
// for primdecomp; each call site still cites the primitive its Algorithm 1–3
// line instantiates.

// own makes refs safe to write in place, with room for one more element: if
// the backing array was handed out the writers go on with a copy of it.
func (p *Proc) own() {
	if p.handedOut {
		// A second enumeration of references refs already stores: no
		// reference is gained, lost or moved, so PG has the same edges
		// whether or not this store happens (fdp:primitive).
		p.refs = append(make([]ref.Ref, 0, len(p.refs)+1), p.refs...)
		p.handedOut = false
	}
}

// find returns v's position in u.N, or where store would put it.
func (p *Proc) find(v ref.Ref) (int, bool) {
	return ref.Search(p.refs[:len(p.beliefs)], v)
}

// store puts v into u.N with the given belief, overwriting the belief when v
// is already held (♠ fusion with the stored copy).
//
//fdp:primitive fusion,init
func (p *Proc) store(v ref.Ref, belief sim.Mode) {
	i, held := p.find(v)
	if held {
		p.beliefs[i] = belief
		return
	}
	p.own()
	p.refs = slices.Insert(p.refs, i, v)
	p.beliefs = slices.Insert(p.beliefs, i, belief)
}

// drop removes v from u.N if it is held. In the protocol a deletion is only
// ever half of a primitive: the caller has put v, or its own reference for v,
// in flight in the same branch (♣ reversal, ♥ delegation).
//
//fdp:primitive reversal,delegation,init
func (p *Proc) drop(v ref.Ref) {
	i, held := p.find(v)
	if !held {
		return
	}
	if last := len(p.refs) - 1; i == last {
		p.refs = p.refs[:last] // cut off, not written: no copy is due
	} else {
		p.own()
		p.refs = slices.Delete(p.refs, i, i+1)
	}
	p.beliefs = slices.Delete(p.beliefs, i, i+1)
}

// setAnchor makes v the anchor with the given belief and re-arms the
// re-verification backoff (♠ the reference is stored).
//
//fdp:primitive fusion,init
func (p *Proc) setAnchor(v ref.Ref, belief sim.Mode) {
	if p.Anchor() != v {
		p.clearAnchor()
		if !v.IsNil() {
			p.own()
			p.refs = append(p.refs, v)
		}
	}
	p.anchorMode = belief
	p.resetVerifyPacing()
}

// clearAnchor sets the anchor to ⊥; the belief and the pacing state are left
// alone (the next setAnchor re-arms them). Callers have moved the reference
// elsewhere or learnt that it is no valid anchor.
//
//fdp:primitive fusion,delegation,init
func (p *Proc) clearAnchor() {
	p.refs = p.refs[:len(p.beliefs)]
}

// SetNeighbor stores v in u.N with the given mode belief — scenario
// construction only (possibly deliberately invalid, for self-stabilization
// experiments).
func (p *Proc) SetNeighbor(v ref.Ref, belief sim.Mode) {
	if v.IsNil() {
		return
	}
	p.store(v, belief)
}

// RemoveNeighbor removes v from u.N — scenario construction only.
func (p *Proc) RemoveNeighbor(v ref.Ref) { p.drop(v) }

// SetAnchor sets the anchor variable — scenario construction only.
func (p *Proc) SetAnchor(v ref.Ref, belief sim.Mode) { p.setAnchor(v, belief) }

// resetVerifyPacing re-arms the anchor re-verification backoff; called
// whenever the anchor variable changes, so a fresh (or freshly corrupted)
// anchor is verified on the next eligible timeout.
func (p *Proc) resetVerifyPacing() {
	p.verifyGap = 0
	p.sinceVerify = 0
}

// RepointAnchor replaces the anchor with v (and the given belief) and
// returns the displaced reference together with its stored belief. Callers
// that must preserve the reference multiset — the fault injector, whose
// contract forbids burning the last copy of a reference — re-inject the
// returned reference as an in-flight message. The returned Ref is ref.Nil
// when no anchor was stored.
func (p *Proc) RepointAnchor(v ref.Ref, belief sim.Mode) sim.RefInfo {
	old := sim.RefInfo{Ref: p.Anchor(), Mode: p.anchorMode}
	p.setAnchor(v, belief)
	return old
}

// Anchor returns the anchor reference (⊥ = ref.Nil).
func (p *Proc) Anchor() ref.Ref {
	if len(p.refs) > len(p.beliefs) {
		return p.refs[len(p.beliefs)]
	}
	return ref.Nil
}

// AnchorBelief returns u.mode(anchor); meaningful only when Anchor() != ⊥.
func (p *Proc) AnchorBelief() sim.Mode { return p.anchorMode }

// NeighborRefs returns the members of u.N in ref.Sort order. Like Refs, of
// which it is a prefix, the slice is shared and read-only.
func (p *Proc) NeighborRefs() []ref.Ref {
	return p.Refs()[:len(p.beliefs):len(p.beliefs)]
}

// Refs implements sim.Protocol: all stored references — u.N in ref.Sort
// order, then the anchor — the explicit edges of PG. The slice is the
// process's own storage: shared with every other caller until the stored
// references change, never modified after it was handed out, and callers
// must not modify it either.
func (p *Proc) Refs() []ref.Ref {
	p.handedOut = true
	return p.refs[:len(p.refs):len(p.refs)]
}

// Beliefs returns every stored reference together with the stored mode
// belief — u.N in ref.Sort order, then the anchor — for the potential
// function Φ. The slice is the caller's.
func (p *Proc) Beliefs() []sim.RefInfo {
	out := make([]sim.RefInfo, len(p.beliefs), len(p.refs))
	for i, m := range p.beliefs {
		out[i] = sim.RefInfo{Ref: p.refs[i], Mode: m}
	}
	if a := p.Anchor(); !a.IsNil() {
		out = append(out, sim.RefInfo{Ref: a, Mode: p.anchorMode})
	}
	return out
}

// NeighborBeliefs returns u.N in ref.Sort order, each member with u.mode(v):
// Beliefs without the anchor.
func (p *Proc) NeighborBeliefs() []sim.RefInfo {
	return p.Beliefs()[:len(p.beliefs)]
}

// selfList returns the parameter list of a message carrying only u's own
// reference with u's true mode. It is built once per mode and then shared by
// every such message u sends: a message's parameter list is read-only once
// sent (sim.Message), so the list is never written again — a Proc driven
// under another reference builds a fresh one.
func (p *Proc) selfList(u ref.Ref, mode sim.Mode) []sim.RefInfo {
	if l := p.self[mode]; len(l) == 1 && l[0].Ref == u {
		return l
	}
	// A second copy of u's own reference is no edge of PG — graph.AddEdge
	// ignores self-loops — so nothing is gained, lost or moved
	// (fdp:primitive).
	p.self[mode] = []sim.RefInfo{{Ref: u, Mode: mode}}
	return p.self[mode]
}

// presentSelf builds the present(u) message introducing the sender itself.
func (p *Proc) presentSelf(u ref.Ref, mode sim.Mode) sim.Message {
	return sim.Message{Label: LabelPresent, Refs: p.selfList(u, mode)}
}

// forwardSelf builds the forward(u) message handing over the sender's own
// reference.
func (p *Proc) forwardSelf(u ref.Ref, mode sim.Mode) sim.Message {
	return sim.Message{Label: LabelForward, Refs: p.selfList(u, mode)}
}

// present builds a present(v) message carrying the given belief about v.
func present(v ref.Ref, belief sim.Mode) sim.Message {
	return sim.NewMessage(LabelPresent, sim.RefInfo{Ref: v, Mode: belief})
}

// forward builds a forward(v) message carrying the given belief about v.
func forward(v ref.Ref, belief sim.Mode) sim.Message {
	return sim.NewMessage(LabelForward, sim.RefInfo{Ref: v, Mode: belief})
}

// Timeout implements Algorithm 1 (u.timeout).
func (p *Proc) Timeout(ctx sim.Context) {
	u := ctx.Self()

	// Lines 1–3: an anchor believed to be leaving is not a valid anchor;
	// move its reference into u's own channel for regular processing. Only a
	// leaver may do this: a leaving receiver of its own present always
	// answers with a reversal (Algorithm 2 line 5), but a staying receiver
	// consumes a present for a reference it does not hold silently — and
	// since this self-present deleted the anchor copy, that would burn what
	// may be the last copy of the reference (the anchor-reintegration-burn
	// fixture). Staying processes fold their anchor into n below instead.
	if a := p.Anchor(); ctx.Mode() == sim.Leaving && !a.IsNil() && p.anchorMode == sim.Leaving {
		ctx.Send(u, present(a, p.anchorMode)) // ♦ (reference kept in flight)
		p.clearAnchor()
	}

	if ctx.Mode() == sim.Leaving {
		if len(p.beliefs) == 0 {
			if p.variant == VariantFDP && ctx.OracleSays() {
				// Lines 5–7: exit when the oracle SINGLE allows it.
				ctx.Exit()
				return
			}
			// Lines 9–10: re-verify the anchor. A staying anchor that has
			// already shed us answers with a reversal we delegate straight
			// back (a bounded exchange); a leaving one answers with its true
			// mode, which clears the invalid anchor — this is what breaks
			// mutual-anchor cycles between two leavers. The
			// verification is paced with exponential backoff (see verifyGap):
			// each re-introduction puts a reference of u in flight, and
			// sending one on every timeout lets a deterministic schedule keep
			// NIDEC's guard false at every query.
			if a := p.Anchor(); !a.IsNil() {
				if p.sinceVerify >= p.verifyGap {
					ctx.Send(a, p.presentSelf(u, sim.Leaving)) // ♦ self-introduction
					p.sinceVerify = 0
					if p.verifyGap == 0 {
						p.verifyGap = 1
					} else if p.verifyGap < maxVerifyGap {
						p.verifyGap *= 2
					}
				} else {
					p.sinceVerify++
				}
			}
			if p.variant == VariantFSP {
				// FSP: no oracle; go to sleep. Incoming messages wake the
				// process again, so no reference can be stranded.
				ctx.Sleep()
			}
			return
		}
		// Lines 12–14: funnel the entire neighborhood into u's own channel;
		// the forward handler will adopt an anchor and delegate the rest.
		for i, v := range p.refs[:len(p.beliefs)] {
			ctx.Send(u, forward(v, p.beliefs[i])) // reference kept in flight (♦/♣)
		}
		for i := len(p.beliefs) - 1; i >= 0; i-- {
			p.drop(p.refs[i]) // ... and out of u.N: it travels in the message above
		}
		if p.variant == VariantFSP {
			// Sleep immediately; the just-sent self-messages wake us.
			ctx.Sleep()
		}
		return
	}

	// Staying branch (lines 15–22). A staying process needs no anchor:
	// reintegrate it as an ordinary reference. The fold-back is a direct
	// store (♠ fusion with any copy already in n), NOT a present to self: a
	// self-present deletes the anchor copy, so on delivery it is a
	// delegation in introduction's clothing — and the silent-consumption
	// branch of the present action (sound only for true introductions,
	// whose sender keeps a copy) would burn what may be the last copy of
	// the reference. The churn fuzzer found exactly that as a Lemma 2
	// violation: a staying process with a corrupted anchor to a leaver
	// reintegrated it, consumed the self-present silently, and disconnected
	// itself (the anchor-reintegration-burn fixture). This store handles
	// anchors of either claimed mode; a leaving-claimed one is shed by the
	// reversal in the loop below within the same timeout. ♠
	if a := p.Anchor(); !a.IsNil() {
		p.clearAnchor()
		if a != u {
			p.store(a, p.anchorMode) // ♠
		}
	}
	self := p.presentSelf(u, sim.Staying)
	for i := 0; i < len(p.beliefs); {
		v := p.refs[i]
		if p.beliefs[i] == sim.Leaving {
			p.drop(v)         // ♣ drop the reference (its successor is at i now) ...
			ctx.Send(v, self) // ... and hand v our own: ♣ reversal
			continue
		}
		ctx.Send(v, self) // ♦ periodic self-introduction
		i++
	}
}

// Deliver implements sim.Protocol, dispatching to the present and forward
// actions. Unknown labels are ignored (the model drops such messages).
func (p *Proc) Deliver(ctx sim.Context, msg sim.Message) {
	if len(msg.Refs) != 1 {
		return
	}
	switch msg.Label {
	case LabelPresent:
		p.onPresent(ctx, msg.Refs[0])
	case LabelForward:
		p.onForward(ctx, msg.Refs)
	}
}

// onPresent implements Algorithm 2 (u.present(v)).
func (p *Proc) onPresent(ctx sim.Context, ri sim.RefInfo) {
	u := ctx.Self()
	v, claim := ri.Ref, ri.Mode
	if v == u {
		// References to oneself carry no connectivity information; they are
		// discarded (a safe fusion-like cleanup, see DESIGN.md).
		return
	}
	// Incoming information refreshes stored knowledge about v.
	if i, stored := p.find(v); stored {
		p.beliefs[i] = claim // ♠ belief refresh on a stored edge
	}
	// Lines 1–2: an anchor reported to be leaving is dropped. ♠
	if v == p.Anchor() {
		p.anchorMode = claim
		if claim == sim.Leaving {
			p.clearAnchor()
		}
	}
	if claim == sim.Leaving {
		if ctx.Mode() == sim.Leaving {
			// Line 5: two leaving processes bounce their own references so
			// each can shed the other. ♣
			ctx.Send(v, p.forwardSelf(u, sim.Leaving))
			return
		}
		// Lines 7–9: a staying process sheds a leaving reference and hands
		// the leaver its own reference instead (♣ reversal) — held or not,
		// matching the forward action. An earlier version consumed a present
		// for a reference it did not hold silently, reasoning that an
		// introduction's sender keeps its own copy; the churn fuzzer refuted
		// that for corrupted states, where a junk present can be the only
		// bridge between two components and burning it splits them (the
		// junk-present-bridge fixture). The reversal flips the edge instead
		// of dropping it, and the exchange it starts terminates: the leaver
		// delegates the reply to its anchor (self-discarded when the anchor
		// is us), and its verification backoff and FSP sleep bound any
		// repeats — so leavers still hibernate.
		p.drop(v) // ♣ reversal (with the send below)
		ctx.Send(v, p.forwardSelf(u, sim.Staying))
		return
	}
	// claim == staying.
	if ctx.Mode() == sim.Leaving {
		if !p.Anchor().IsNil() {
			// Line 13: already anchored; tell v about ourselves so v can
			// shed any reference to u. ♣
			ctx.Send(v, p.forwardSelf(u, sim.Leaving))
			return
		}
		// Line 15: adopt v as anchor. ♠ (reference stored)
		p.setAnchor(v, sim.Staying)
		return
	}
	// Line 17: staying processes store staying references. ♠
	p.store(v, claim)
}

// Undeliverable implements sim.UndeliverableHandler: a message u sent
// bounced because its target is gone. This is the transport-level failure
// detection the model's postprocess presupposes ("postprocess is able to
// handle messages that cannot be delivered").
//
// Two things need repair. First, a gone target is never a valid anchor:
// clear it, or u would keep delegating into the void forever. Second, a
// bounced forward is a Delegation (♥) whose sender deleted its own copy —
// if the carried reference is neither u itself nor the dead target, the
// bounced message may hold the LAST copy of that reference, and losing it
// can disconnect relevant processes (a Lemma 2 violation). Recover it by
// re-sending it to u's own channel, where the forward action processes it
// again under the repaired anchor. A bounced present needs no recovery: an
// Introduction's (♦) sender kept its own copy, so no connectivity hinges on
// the message.
func (p *Proc) Undeliverable(ctx sim.Context, to ref.Ref, msg sim.Message) {
	if p.Anchor() == to {
		p.clearAnchor() // a gone target is never a valid anchor
	}
	if msg.Label != LabelForward || len(msg.Refs) != 1 {
		return
	}
	if v := msg.Refs[0].Ref; v == ctx.Self() || v == to {
		// Our own reference (we keep ourselves) or a reference to the dead
		// process itself (never again an edge of PG): nothing to preserve.
		return
	}
	ctx.Send(ctx.Self(), sim.Message{Label: LabelForward, Refs: msg.Refs}) // ♥ reference kept in flight
}

// onForward implements Algorithm 3 (u.forward(v)); vs is the message's
// one-element parameter list, which a delegation passes on as it is (a list
// is read-only once sent, so messages may share it).
func (p *Proc) onForward(ctx sim.Context, vs []sim.RefInfo) {
	u := ctx.Self()
	v, claim := vs[0].Ref, vs[0].Mode
	if v == u {
		return
	}
	if i, stored := p.find(v); stored {
		p.beliefs[i] = claim // ♠ belief refresh on a stored edge
	}
	// Lines 1–2. ♠
	if v == p.Anchor() {
		p.anchorMode = claim
		if claim == sim.Leaving {
			p.clearAnchor()
		}
	}
	if claim == sim.Leaving {
		if ctx.Mode() == sim.Leaving {
			a := p.Anchor()
			if a.IsNil() {
				// Line 6: no anchor yet — bounce our reference to v. ♣
				ctx.Send(v, p.forwardSelf(u, sim.Leaving))
				return
			}
			// Line 8: delegate v's reference to the anchor. ♥
			// (The only place invalid information could be copied — but v
			// is not kept, so Φ does not increase; see Lemma 3.)
			ctx.Send(a, sim.Message{Label: LabelForward, Refs: vs}) // ♥
			return
		}
		// Lines 10–12: staying process sheds v and reverses the edge. ♣
		p.drop(v)
		ctx.Send(v, p.forwardSelf(u, sim.Staying)) // ♣
		return
	}
	// claim == staying.
	if ctx.Mode() == sim.Leaving {
		if a := p.Anchor(); !a.IsNil() {
			// Line 16: pass the reference on to the anchor. ♥
			ctx.Send(a, sim.Message{Label: LabelForward, Refs: vs})
			return
		}
		// Line 18: adopt v as anchor. ♠
		p.setAnchor(v, sim.Staying)
		return
	}
	// Line 20: staying processes store staying references. ♠
	p.store(v, claim)
}
