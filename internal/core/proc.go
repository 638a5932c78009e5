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

	// n is the neighborhood set u.N with u.mode(v) per member.
	n map[ref.Ref]sim.Mode
	// anchor is the special anchor variable (⊥ = ref.Nil) and u's belief
	// about its mode.
	anchor     ref.Ref
	anchorMode sim.Mode

	// sorted is the enumeration Refs hands out — the keys of n in ref.Sort
	// order, then the anchor if one is stored — and sortedOK says it still
	// matches them. On a Proc that has handed out an enumeration, n's key
	// set and the anchor are written only by store, drop, setAnchor and
	// clearAnchor, which clear sortedOK when (and only when) the write
	// changes the enumeration; a belief refresh on a stored key does not.
	// (New and CloneProtocol fill a fresh Proc, whose sortedOK is still
	// false.) The next Refs call then builds a fresh slice, so one already
	// handed out is never written again.
	sorted   []ref.Ref
	sortedOK bool

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
	return &Proc{variant: variant, n: make(map[ref.Ref]sim.Mode)}
}

// Variant returns the process's departure flavour.
func (p *Proc) Variant() Variant { return p.variant }

// UsesSleep reports whether the process uses the FSP variant.
func (p *Proc) UsesSleep() bool { return p.variant == VariantFSP }

// store, drop, setAnchor and clearAnchor are the only writers of n's key set
// and of the anchor once a Proc is built, so the rule that keeps Refs'
// enumeration coherent lives here and nowhere else. They are classified once for primdecomp; each call
// site still cites the primitive its Algorithm 1–3 line instantiates.

// store puts v into u.N with the given belief, overwriting the belief when v
// is already held (♠ fusion with the stored copy).
//fdp:primitive fusion,init
func (p *Proc) store(v ref.Ref, belief sim.Mode) {
	if _, held := p.n[v]; !held {
		p.sortedOK = false
	}
	p.n[v] = belief
}

// drop removes v from u.N if it is held. In the protocol a deletion is only
// ever half of a primitive: the caller has put v, or its own reference for v,
// in flight in the same branch (♣ reversal, ♥ delegation).
//fdp:primitive reversal,delegation,init
func (p *Proc) drop(v ref.Ref) {
	if _, held := p.n[v]; held {
		delete(p.n, v)
		p.sortedOK = false
	}
}

// setAnchor makes v the anchor with the given belief and re-arms the
// re-verification backoff (♠ the reference is stored).
//fdp:primitive fusion,init
func (p *Proc) setAnchor(v ref.Ref, belief sim.Mode) {
	if p.anchor != v {
		p.sortedOK = false
	}
	p.anchor = v
	p.anchorMode = belief
	p.resetVerifyPacing()
}

// clearAnchor sets the anchor to ⊥; the pacing state is left alone (it is
// re-armed by the next setAnchor). Callers have moved the reference
// elsewhere or learnt that it is no valid anchor.
//fdp:primitive fusion,delegation,init
func (p *Proc) clearAnchor() {
	if !p.anchor.IsNil() {
		p.anchor = ref.Nil
		p.sortedOK = false
	}
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
	old := sim.RefInfo{Ref: p.anchor, Mode: p.anchorMode}
	p.setAnchor(v, belief)
	return old
}

// Anchor returns the anchor reference (⊥ = ref.Nil).
func (p *Proc) Anchor() ref.Ref { return p.anchor }

// AnchorBelief returns u.mode(anchor); meaningful only when Anchor() != ⊥.
func (p *Proc) AnchorBelief() sim.Mode { return p.anchorMode }

// Neighbors returns a copy of u.N with beliefs.
func (p *Proc) Neighbors() map[ref.Ref]sim.Mode {
	out := make(map[ref.Ref]sim.Mode, len(p.n))
	for r, m := range p.n {
		out[r] = m
	}
	return out
}

// NeighborRefs returns the members of u.N in ref.Sort order. Like Refs, of
// which it is a prefix, the slice is shared and read-only.
func (p *Proc) NeighborRefs() []ref.Ref {
	return p.Refs()[:len(p.n):len(p.n)]
}

// Refs implements sim.Protocol: all stored references — u.N in ref.Sort
// order, then the anchor — the explicit edges of PG. The slice is shared
// with every other caller until the stored references change and is never
// modified after it was handed out; callers must not modify it either. On an
// unchanged process the call neither allocates nor sorts.
func (p *Proc) Refs() []ref.Ref {
	if !p.sortedOK {
		k := len(p.n)
		if !p.anchor.IsNil() {
			k++
		}
		out := make([]ref.Ref, 0, k)
		for r := range p.n {
			out = append(out, r)
		}
		ref.Sort(out)
		if !p.anchor.IsNil() {
			out = append(out, p.anchor)
		}
		// A second enumeration of references n and anchor already store: no
		// reference is gained, lost or moved, so PG has the same edges
		// whether or not this store happens (fdp:primitive).
		p.sorted, p.sortedOK = out, true
	}
	return p.sorted
}

// Beliefs returns every stored reference together with the stored mode
// belief, for the potential function Φ.
func (p *Proc) Beliefs() []sim.RefInfo {
	out := make([]sim.RefInfo, 0, len(p.n)+1)
	for _, r := range p.NeighborRefs() {
		out = append(out, sim.RefInfo{Ref: r, Mode: p.n[r]})
	}
	if !p.anchor.IsNil() {
		out = append(out, sim.RefInfo{Ref: p.anchor, Mode: p.anchorMode})
	}
	return out
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
	if ctx.Mode() == sim.Leaving && !p.anchor.IsNil() && p.anchorMode == sim.Leaving {
		ctx.Send(u, present(p.anchor, p.anchorMode)) // ♦ (reference kept in flight)
		p.clearAnchor()
	}

	if ctx.Mode() == sim.Leaving {
		if len(p.n) == 0 {
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
			if !p.anchor.IsNil() {
				if p.sinceVerify >= p.verifyGap {
					ctx.Send(p.anchor, present(u, sim.Leaving)) // ♦ self-introduction
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
		for _, v := range p.NeighborRefs() {
			ctx.Send(u, forward(v, p.n[v])) // reference kept in flight (♦/♣)
			p.drop(v)                       // ... and out of u.N: it travels in the message above
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
	if !p.anchor.IsNil() {
		if p.anchor != u {
			p.store(p.anchor, p.anchorMode) // ♠
		}
		p.clearAnchor()
	}
	for _, v := range p.NeighborRefs() {
		if p.n[v] == sim.Leaving {
			p.drop(v)                            // ♣ drop the reference ...
			ctx.Send(v, present(u, sim.Staying)) // ... and hand v our own: ♣ reversal
			continue
		}
		ctx.Send(v, present(u, sim.Staying)) // ♦ periodic self-introduction
	}
}

// Deliver implements sim.Protocol, dispatching to the present and forward
// actions. Unknown labels are ignored (the model drops such messages).
func (p *Proc) Deliver(ctx sim.Context, msg sim.Message) {
	if len(msg.Refs) != 1 {
		return
	}
	ri := msg.Refs[0]
	switch msg.Label {
	case LabelPresent:
		p.onPresent(ctx, ri)
	case LabelForward:
		p.onForward(ctx, ri)
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
	_, stored := p.n[v]
	if stored {
		p.n[v] = claim // ♠ belief refresh on a stored edge
	}
	// Lines 1–2: an anchor reported to be leaving is dropped. ♠
	if v == p.anchor {
		p.anchorMode = claim
		if claim == sim.Leaving {
			p.clearAnchor()
		}
	}
	if claim == sim.Leaving {
		if ctx.Mode() == sim.Leaving {
			// Line 5: two leaving processes bounce their own references so
			// each can shed the other. ♣
			ctx.Send(v, forward(u, sim.Leaving))
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
		ctx.Send(v, forward(u, sim.Staying))
		return
	}
	// claim == staying.
	if ctx.Mode() == sim.Leaving {
		if !p.anchor.IsNil() {
			// Line 13: already anchored; tell v about ourselves so v can
			// shed any reference to u. ♣
			ctx.Send(v, forward(u, sim.Leaving))
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
	if p.anchor == to {
		p.clearAnchor() // a gone target is never a valid anchor
	}
	if msg.Label != LabelForward || len(msg.Refs) != 1 {
		return
	}
	ri := msg.Refs[0]
	if ri.Ref == ctx.Self() || ri.Ref == to {
		// Our own reference (we keep ourselves) or a reference to the dead
		// process itself (never again an edge of PG): nothing to preserve.
		return
	}
	ctx.Send(ctx.Self(), forward(ri.Ref, ri.Mode)) // ♥ reference kept in flight
}

// onForward implements Algorithm 3 (u.forward(v)).
func (p *Proc) onForward(ctx sim.Context, ri sim.RefInfo) {
	u := ctx.Self()
	v, claim := ri.Ref, ri.Mode
	if v == u {
		return
	}
	_, stored := p.n[v]
	if stored {
		p.n[v] = claim // ♠ belief refresh on a stored edge
	}
	// Lines 1–2. ♠
	if v == p.anchor {
		p.anchorMode = claim
		if claim == sim.Leaving {
			p.clearAnchor()
		}
	}
	if claim == sim.Leaving {
		if ctx.Mode() == sim.Leaving {
			if p.anchor.IsNil() {
				// Line 6: no anchor yet — bounce our reference to v. ♣
				ctx.Send(v, forward(u, sim.Leaving))
				return
			}
			// Line 8: delegate v's reference to the anchor. ♥
			// (The only place invalid information could be copied — but v
			// is not kept, so Φ does not increase; see Lemma 3.)
			ctx.Send(p.anchor, forward(v, claim)) // ♥
			return
		}
		// Lines 10–12: staying process sheds v and reverses the edge. ♣
		p.drop(v)
		ctx.Send(v, forward(u, sim.Staying)) // ♣
		return
	}
	// claim == staying.
	if ctx.Mode() == sim.Leaving {
		if !p.anchor.IsNil() {
			// Line 16: pass the reference on to the anchor. ♥
			ctx.Send(p.anchor, forward(v, claim))
			return
		}
		// Line 18: adopt v as anchor. ♠
		p.setAnchor(v, sim.Staying)
		return
	}
	// Line 20: staying processes store staying references. ♠
	p.store(v, claim)
}
