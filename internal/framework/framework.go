// Package framework implements Section 4: the protocol framework P′ that
// combines an arbitrary overlay-maintenance protocol P ∈ 𝒫 with the
// departure protocol of Section 3, so that leaving processes are safely
// excluded while P keeps operating as specified for the staying processes
// (Theorem 4).
//
// The construction follows the paper:
//
//   - preprocess: whenever P wants to send v <- label(parameters), the
//     message is saved in the message list u.mlist and a verify(u) message
//     is sent to v and to every process reference in parameters. Unanswered
//     verifies are re-sent in timeout. Once every referenced process has
//     answered with a process(x) message (which carries x's true mode —
//     information about oneself is always valid), the message is either
//     sent (all staying) or handed to postprocess.
//   - postprocess: references of leaving processes are excluded from P and
//     their owners are handed our own reference instead (a Reversal, which
//     routes our reference into the leaver's anchor machinery); staying
//     references are reintegrated into P.
//   - leaving receivers: a leaving process does not execute P's actions; it
//     answers label(parameters) messages by sending present messages to the
//     processes in parameters so that references to itself disappear.
//   - every process maintains the additional anchor variable of Section 3;
//     the present/forward actions are adapted so that references exchanged
//     between staying processes are reintegrated into P rather than into a
//     separate neighborhood.
//
// A subtle point the oracle makes work: a pending mlist entry stores
// references, i.e. explicit PG edges, so SINGLE never lets a leaving
// process exit while somebody's unverified message still references it —
// verify messages therefore always reach a live process and are always
// answered. No transport-level failure detection is needed.
//
//fdp:decomposable
package framework

import (
	"slices"

	"fdp/internal/core"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Message labels added by the framework on top of the departure protocol's
// present/forward and P's own labels.
const (
	// LabelVerify is verify(u): "tell me your mode". It carries u's
	// reference and u's true mode.
	LabelVerify = "pverify"
	// LabelProcess is process(x): the answer, carrying x's reference and
	// x's true mode.
	LabelProcess = "pprocess"
)

// entry is one saved message of P awaiting mode verification. Everything
// but modes is fixed when the entry is created and never written again, so
// a clone of the wrapper shares it: a payload must therefore be immutable
// (the payloads in the tree, app.RoutePayload and app.DonePayload, are value
// structs).
type entry struct {
	to      ref.Ref
	label   string
	refs    []ref.Ref
	payload any
	// every is to plus all parameter references, deduplicated, in ref.Sort
	// order, without ⊥: the references the entry stores.
	every []ref.Ref
	// modes[i] is the verified mode of every[i]; sim.Unknown (the paper's
	// additional mode value "unknown") means not verified yet. Like any
	// other variable it may hold arbitrary values in the initial state.
	modes []sim.Mode
}

// newEntry saves a message of P with every referenced mode unknown.
func newEntry(to ref.Ref, label string, refs []ref.Ref, payload any) *entry {
	every := append(append(make([]ref.Ref, 0, len(refs)+1), to), refs...)
	ref.Sort(every)
	every = slices.Compact(every)
	if len(every) > 0 && every[0].IsNil() { // ⊥ sorts first
		every = every[1:]
	}
	modes := make([]sim.Mode, len(every))
	for i := range modes {
		modes[i] = sim.Unknown
	}
	return &entry{to: to, label: label, refs: refs, payload: payload, every: every, modes: modes}
}

// sameMessage reports whether the entry describes the P message to <-
// label(refs) (payloads are not compared — periodic P messages are
// reference-driven).
func (e *entry) sameMessage(to ref.Ref, label string, refs []ref.Ref) bool {
	return e.to == to && e.label == label && slices.Equal(e.refs, refs)
}

// learn records m as r's verified mode if the entry references r.
func (e *entry) learn(r ref.Ref, m sim.Mode) {
	if i, ok := ref.Search(e.every, r); ok {
		e.modes[i] = m
	}
}

func (e *entry) complete() bool {
	return !slices.Contains(e.modes, sim.Unknown)
}

func (e *entry) allStaying() bool {
	for _, m := range e.modes {
		if m != sim.Staying {
			return false
		}
	}
	return true
}

// Wrapper is one process executing P′. It implements sim.Protocol.
type Wrapper struct {
	inner   overlay.Protocol
	variant core.Variant

	anchor     ref.Ref
	anchorMode sim.Mode

	// mlist: pending messages of P (staying processes only, but an
	// arbitrary initial state may give one to a leaving process; timeout
	// dissolves it there).
	mlist []*entry

	// shed (leaving processes): references stripped out of P awaiting mode
	// verification before being delegated to the anchor.
	shed ref.List

	// refs is the enumeration Refs last handed out, read-only and shared
	// like core.Proc's. It was built from inner's enumeration refsInner, the
	// shed enumeration refsShed, the anchor refsAnchor and the mlist as it
	// was when mlistMoved was last cleared; Refs hands it out again until
	// one of those changes. buf is Refs' scratch, never handed out.
	refs, refsInner, refsShed []ref.Ref
	refsAnchor                ref.Ref
	mlistMoved                bool
	buf                       []ref.Ref

	// self holds, per mode, the one-element parameter list of a message that
	// carries only u's own reference, shared by every such message (see
	// selfList).
	self [2][]sim.RefInfo
	// pc is the overlay context of the action in progress (see pctx).
	pc pctx
}

var _ sim.CloneableProtocol = (*Wrapper)(nil)
var _ core.BeliefHolder = (*Wrapper)(nil)

// New wraps an overlay protocol instance into P′.
func New(inner overlay.Protocol, variant core.Variant) *Wrapper {
	return &Wrapper{inner: inner, variant: variant}
}

// CloneProtocol implements sim.CloneableProtocol: the overlay state, the
// shed set and every entry's modes are copied; what never changes after it
// is written (entries' references and payloads, the self lists, handed-out
// enumerations) is shared. It panics if the overlay is not
// overlay.Cloneable.
//
//fdp:primitive init
func (w *Wrapper) CloneProtocol() sim.Protocol {
	c := &Wrapper{
		inner: overlay.CloneOf(w.inner), variant: w.variant,
		anchor: w.anchor, anchorMode: w.anchorMode,
		mlist: make([]*entry, len(w.mlist)),
		shed:  w.shed.Clone(),
		self:  w.self,
		// The first Refs builds the clone's own enumeration.
		mlistMoved: true,
	}
	for i, e := range w.mlist {
		ce := *e
		ce.modes = slices.Clone(e.modes)
		c.mlist[i] = &ce
	}
	return c
}

// Snapshot is the wrapper's stand-in in a frozen runtime world: a clone, so
// the target topology is judged there as on the sequential engine.
func (w *Wrapper) Snapshot() sim.Protocol { return w.CloneProtocol() }

// Overlay exposes the wrapped P instance (for target-topology checks).
func (w *Wrapper) Overlay() overlay.Protocol { return w.inner }

// Variant returns the departure flavour.
func (w *Wrapper) Variant() core.Variant { return w.variant }

// SetAnchor sets the anchor variable — scenario construction only.
//
//fdp:primitive init
func (w *Wrapper) SetAnchor(v ref.Ref, belief sim.Mode) {
	w.anchor = v
	w.anchorMode = belief
}

// SetNeighbor hands v to P as an initial neighbour — scenario construction
// only. P's references carry no mode knowledge, so the belief is dropped.
//
//fdp:primitive init
func (w *Wrapper) SetNeighbor(v ref.Ref, _ sim.Mode) {
	w.inner.(interface{ AddNeighbor(ref.Ref) }).AddNeighbor(v)
}

// Anchor returns the anchor reference (⊥ = ref.Nil).
func (w *Wrapper) Anchor() ref.Ref { return w.anchor }

// InjectPending adds a (possibly corrupted) mlist entry — scenario
// construction only. modes gives pre-"verified" modes; a reference it does
// not name is unknown.
//
//fdp:primitive init
func (w *Wrapper) InjectPending(to ref.Ref, label string, refs []ref.Ref, modes map[ref.Ref]sim.Mode) {
	e := newEntry(to, label, refs, nil)
	for i, r := range e.every {
		if m, ok := modes[r]; ok {
			e.modes[i] = m
		}
	}
	w.mlist = append(w.mlist, e)
	w.mlistMoved = true
}

// PendingCount returns the number of unverified saved messages.
func (w *Wrapper) PendingCount() int { return len(w.mlist) }

// Refs implements sim.Protocol: every stored reference — P's neighborhood,
// the anchor, the shed set, and everything referenced by pending entries —
// once each, in ref.Sort order. Completeness here is what lets SINGLE
// protect verify round-trips. The slice follows core.Proc's contract: it is
// shared with every caller until a stored reference changes, and never
// written after it was handed out.
func (w *Wrapper) Refs() []ref.Ref {
	inner, shed := w.inner.Refs(), w.shed.Refs()
	if w.mlistMoved || w.anchor != w.refsAnchor || !slices.Equal(inner, w.refsInner) || !slices.Equal(shed, w.refsShed) {
		w.rebuildRefs(inner, shed)
	}
	return w.refs
}

// rebuildRefs recomputes the enumeration from inner's and the shed set's,
// the anchor and the mlist, and replaces the handed-out slice only if the
// result differs. Every store here is a second enumeration of references
// the wrapper already stores: no edge of PG is gained, lost or moved.
func (w *Wrapper) rebuildRefs(inner, shed []ref.Ref) {
	buf := append(append(w.buf[:0], inner...), shed...)
	buf = append(buf, w.anchor)
	for _, e := range w.mlist {
		buf = append(buf, e.every...)
	}
	ref.Sort(buf)
	buf = slices.Compact(buf)
	w.buf = buf // fdp:primitive

	if len(buf) > 0 && buf[0].IsNil() { // ⊥ sorts first
		buf = buf[1:]
	}
	if !slices.Equal(buf, w.refs) {
		w.refs = append(make([]ref.Ref, 0, len(buf)), buf...) // fdp:primitive
	}
	w.refsInner, w.refsShed, w.refsAnchor = inner, shed, w.anchor // fdp:primitive
	w.mlistMoved = false
}

// Beliefs implements core.BeliefHolder for the potential function: the
// anchor belief plus every verified mode in pending entries. P's own
// references carry no mode knowledge and contribute nothing.
func (w *Wrapper) Beliefs() []sim.RefInfo {
	var out []sim.RefInfo
	if !w.anchor.IsNil() {
		out = append(out, sim.RefInfo{Ref: w.anchor, Mode: w.anchorMode})
	}
	for _, e := range w.mlist {
		for i, r := range e.every {
			if e.modes[i] != sim.Unknown {
				out = append(out, sim.RefInfo{Ref: r, Mode: e.modes[i]})
			}
		}
	}
	return out
}

// selfList returns the parameter list of a message carrying only u's own
// reference with the given mode, built once per mode and then shared by
// every such message: a message's parameter list is read-only once sent
// (sim.Message), so the list is never written again.
func (w *Wrapper) selfList(u ref.Ref, mode sim.Mode) []sim.RefInfo {
	if l := w.self[mode]; len(l) == 1 && l[0].Ref == u {
		return l
	}
	// A second copy of u's own reference is no edge of PG (fdp:primitive).
	w.self[mode] = []sim.RefInfo{{Ref: u, Mode: mode}}
	return w.self[mode]
}

// selfMsg builds label(u) with u's reference claiming the given mode.
func (w *Wrapper) selfMsg(label string, u ref.Ref, mode sim.Mode) sim.Message {
	return sim.Message{Label: label, Refs: w.selfList(u, mode)}
}

// verifyMsg builds verify(u), which carries u's reference and true mode.
func (w *Wrapper) verifyMsg(ctx sim.Context) sim.Message {
	return w.selfMsg(LabelVerify, ctx.Self(), ctx.Mode())
}

// pctx adapts sim.Context to overlay.Context, routing P's sends through
// preprocess.
type pctx struct {
	w   *Wrapper
	ctx sim.Context
}

// p returns the overlay context for an action running under ctx. It is the
// wrapper's own field, so handing it to P allocates nothing.
func (w *Wrapper) p(ctx sim.Context) *pctx {
	w.pc = pctx{w: w, ctx: ctx} // fdp:primitive: the action's context, no reference of PG
	return &w.pc
}

func (p *pctx) Self() ref.Ref { return p.ctx.Self() }

func (p *pctx) Send(to ref.Ref, label string, refs []ref.Ref, payload any) {
	p.w.preprocess(p.ctx, to, label, refs, payload)
}

// preprocess implements the paper's preprocess action: save the message and
// verify every referenced process's mode. An identical message already
// saved in mlist is not saved again (Fusion ♠ — P protocols re-send their
// periodic messages every timeout, and duplicating them in mlist while the
// first copy awaits verification would flood the system).
//
//fdp:primitive fusion,introduction
func (w *Wrapper) preprocess(ctx sim.Context, to ref.Ref, label string, refs []ref.Ref, payload any) {
	if to.IsNil() {
		return
	}
	for _, old := range w.mlist {
		if old.sameMessage(to, label, refs) {
			return
		}
	}
	e := newEntry(to, label, refs, payload)
	w.mlist = append(w.mlist, e)
	w.mlistMoved = true
	for i, r := range e.every {
		if r == ctx.Self() {
			// A process's knowledge of its own mode is always valid — no
			// verification round-trip needed (or possible).
			e.modes[i] = ctx.Mode()
			continue
		}
		ctx.Send(r, w.verifyMsg(ctx))
	}
}

// Timeout implements sim.Protocol.
func (w *Wrapper) Timeout(ctx sim.Context) {
	u := ctx.Self()

	// Anchor hygiene, exactly as in Algorithm 1 lines 1-3. ♥ (anchor funnels into u's own channel)
	if !w.anchor.IsNil() && w.anchorMode == sim.Leaving {
		ctx.Send(u, sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: w.anchor, Mode: w.anchorMode}))
		w.anchor = ref.Nil
	}

	if ctx.Mode() == sim.Leaving {
		w.leavingTimeout(ctx)
		return
	}
	w.stayingTimeout(ctx)
}

//fdp:primitive delegation,fusion,introduction
func (w *Wrapper) stayingTimeout(ctx sim.Context) {
	u := ctx.Self()
	// A staying process needs no anchor: reintegrate it (Algorithm 1 lines
	// 16-18, adapted: it goes back through present and thence into P).
	if !w.anchor.IsNil() {
		ctx.Send(u, sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: w.anchor, Mode: w.anchorMode}))
		w.anchor = ref.Nil
	}
	// An arbitrary initial state may have put references into shed; a
	// staying process treats them as unknown candidates for P.
	for _, r := range w.shed.Refs() {
		w.inner.Reintegrate(w.p(ctx), r)
	}
	w.shed.Clear()
	// Re-send verify for every still-unknown reference of every pending
	// message ("these verify messages are resent in timeout") — one verify
	// per distinct reference, not per entry.
	// Collected on the stack, not in w.buf: a send may ask for Refs.
	var arr [16]ref.Ref
	unknown := arr[:0]
	for _, e := range w.mlist {
		for i, r := range e.every {
			if r == ctx.Self() {
				e.modes[i] = ctx.Mode() // own mode needs no round-trip
				continue
			}
			if e.modes[i] == sim.Unknown {
				unknown = append(unknown, r)
			}
		}
	}
	ref.Sort(unknown)
	for _, r := range slices.Compact(unknown) {
		ctx.Send(r, w.verifyMsg(ctx))
	}
	w.flush(ctx)
	// P-timeout: the overlay's own periodic action (self-introduction and
	// maintenance), with every send intercepted by preprocess.
	w.inner.Timeout(w.p(ctx))
}

//fdp:primitive reversal,introduction
func (w *Wrapper) leavingTimeout(ctx sim.Context) {
	u := ctx.Self()
	// Dissolve P state: strip every reference P still holds, and every
	// reference in pending messages, into the shed set. The payloads of
	// pending messages are dropped — a leaving process does not execute P.
	for _, r := range w.inner.Refs() {
		w.inner.Exclude(r)
		if r != u && r != w.anchor {
			w.shed.Add(r)
		}
	}
	for _, e := range w.mlist {
		for _, r := range e.every {
			if r != u && r != w.anchor {
				w.shed.Add(r)
			}
		}
	}
	w.mlistMoved = w.mlistMoved || len(w.mlist) > 0
	w.mlist = nil

	if w.shed.Len() > 0 {
		// Verify each stripped reference's mode; the answers route them.
		for _, r := range w.shed.Refs() {
			ctx.Send(r, w.verifyMsg(ctx))
		}
		if w.variant == core.VariantFSP {
			ctx.Sleep() // the pending answers will wake us
		}
		return
	}

	if w.variant == core.VariantFDP && ctx.OracleSays() {
		ctx.Exit()
		return
	}
	// Re-verify the anchor: a staying anchor that already shed us stays
	// silent; a leaving one answers with its true mode, clearing invalid
	// (e.g. mutual leaver-to-leaver) anchors.
	if !w.anchor.IsNil() {
		ctx.Send(w.anchor, w.selfMsg(core.LabelPresent, u, sim.Leaving))
	}
	if w.variant == core.VariantFSP {
		ctx.Sleep()
	}
}

// flush sends or postprocesses every fully verified pending message
// (staying processes only).
//
//fdp:primitive delegation,reversal,fusion
func (w *Wrapper) flush(ctx sim.Context) {
	u := ctx.Self()
	kept := w.mlist[:0]
	for _, e := range w.mlist {
		if !e.complete() {
			kept = append(kept, e)
			continue
		}
		if e.allStaying() {
			ris := make([]sim.RefInfo, len(e.refs))
			for i, r := range e.refs {
				ris[i] = sim.RefInfo{Ref: r, Mode: sim.Staying}
			}
			ctx.Send(e.to, sim.Message{Label: e.label, Refs: ris, Payload: e.payload})
			continue
		}
		// postprocess: exclude the leaving and the gone, reintegrate the
		// staying.
		for i, r := range e.every {
			if r == u {
				continue
			}
			switch e.modes[i] {
			case sim.Leaving:
				w.inner.Exclude(r)
				// Reversal ♣: hand the leaver our reference; its anchor
				// machinery will absorb it.
				ctx.Send(r, w.selfMsg(core.LabelForward, u, ctx.Mode()))
			case sim.Absent:
				// The process is gone: its reference is dead weight and is
				// simply dropped from P (a gone process is removed from PG
				// with all incident edges, so no connectivity is at stake).
				w.inner.Exclude(r)
			default:
				w.inner.Reintegrate(w.p(ctx), r)
			}
		}
	}
	w.mlistMoved = w.mlistMoved || len(kept) < len(w.mlist)
	w.mlist = kept
}

// Deliver implements sim.Protocol.
func (w *Wrapper) Deliver(ctx sim.Context, msg sim.Message) {
	switch msg.Label {
	case LabelVerify:
		w.onVerify(ctx, msg)
	case LabelProcess:
		w.onProcess(ctx, msg)
	case core.LabelPresent:
		if len(msg.Refs) == 1 {
			w.onPF(ctx, msg.Refs[0], false)
		}
	case core.LabelForward:
		if len(msg.Refs) == 1 {
			w.onPF(ctx, msg.Refs[0], true)
		}
	default:
		w.onPMessage(ctx, msg)
	}
}

// onVerify answers with our true mode. The verify itself carried the
// sender's reference and true mode — free, always-valid knowledge, which we
// use to update pending entries.
//
//fdp:primitive introduction
func (w *Wrapper) onVerify(ctx sim.Context, msg sim.Message) {
	if len(msg.Refs) != 1 {
		return
	}
	x := msg.Refs[0]
	if x.Ref == ctx.Self() {
		return
	}
	w.learn(ctx, x)
	ctx.Send(x.Ref, w.selfMsg(LabelProcess, ctx.Self(), ctx.Mode()))
}

// onProcess records the answered mode and routes accordingly.
func (w *Wrapper) onProcess(ctx sim.Context, msg sim.Message) {
	if len(msg.Refs) != 1 {
		return
	}
	v := msg.Refs[0]
	if v.Ref == ctx.Self() {
		return
	}
	w.learn(ctx, v)
}

// learn incorporates ground-truth mode knowledge about v (from a process or
// verify message, where the information is about the sender itself).
//
//fdp:primitive fusion,delegation,reversal
func (w *Wrapper) learn(ctx sim.Context, v sim.RefInfo) {
	u := ctx.Self()
	for _, e := range w.mlist {
		e.learn(v.Ref, v.Mode)
	}
	if v.Ref == w.anchor {
		w.anchorMode = v.Mode
		if v.Mode == sim.Leaving {
			w.anchor = ref.Nil
		}
	}
	if ctx.Mode() == sim.Leaving {
		// Route a shed reference now that its mode is known.
		w.shed.Remove(v.Ref)
		switch v.Mode {
		case sim.Staying:
			if w.anchor.IsNil() {
				w.anchor = v.Ref
				w.anchorMode = sim.Staying
			} else if v.Ref != w.anchor {
				// Delegation ♥ to the anchor.
				ctx.Send(w.anchor, sim.NewMessage(core.LabelForward, sim.RefInfo{Ref: v.Ref, Mode: v.Mode}))
			}
		case sim.Leaving:
			// Mutual shedding ♣.
			ctx.Send(v.Ref, w.selfMsg(core.LabelForward, u, sim.Leaving))
		}
		return
	}
	// Staying process: verified-leaving references are excluded from P
	// (with the Reversal handing over our own reference); verified-staying
	// ones it may simply keep. flush() completes pending messages.
	if v.Mode == sim.Leaving {
		if slices.Contains(w.inner.Refs(), v.Ref) {
			w.inner.Exclude(v.Ref)
			ctx.Send(v.Ref, w.selfMsg(core.LabelForward, u, sim.Staying))
		}
	}
	w.flush(ctx)
}

// onPF handles the departure protocol's present/forward actions, adapted as
// Section 4 prescribes: references exchanged between staying processes are
// reintegrated into P instead of a separate neighborhood.
//
//fdp:primitive fusion,delegation,reversal
func (w *Wrapper) onPF(ctx sim.Context, v sim.RefInfo, isForward bool) {
	u := ctx.Self()
	if v.Ref == u {
		return
	}
	// Anchor hygiene (Algorithms 2/3, lines 1-2).
	if v.Ref == w.anchor {
		w.anchorMode = v.Mode
		if v.Mode == sim.Leaving {
			w.anchor = ref.Nil
		}
	}
	if v.Mode == sim.Leaving {
		if ctx.Mode() == sim.Leaving {
			if isForward && !w.anchor.IsNil() {
				// Delegation ♥ (Algorithm 3 line 8).
				ctx.Send(w.anchor, sim.NewMessage(core.LabelForward, v))
				return
			}
			// Reversal ♣ (Algorithm 2 line 5 / Algorithm 3 line 6).
			ctx.Send(v.Ref, w.selfMsg(core.LabelForward, u, sim.Leaving))
			return
		}
		// Staying: shed from P and reverse (Algorithm 2 lines 7-9 /
		// Algorithm 3 lines 10-12). A delegated reference (forward) must
		// always be bounced — its sender deleted its copy; an introduced
		// one (present) is bounced only if we actually stored it, so that
		// re-verifications from already-shed leavers quiesce.
		held := slices.Contains(w.inner.Refs(), v.Ref) || w.shed.Has(v.Ref)
		w.inner.Exclude(v.Ref)
		w.shed.Remove(v.Ref)
		if isForward || held {
			ctx.Send(v.Ref, w.selfMsg(core.LabelForward, u, sim.Staying))
		}
		return
	}
	// Claimed staying.
	if ctx.Mode() == sim.Leaving {
		if !w.anchor.IsNil() {
			if isForward {
				ctx.Send(w.anchor, sim.NewMessage(core.LabelForward, v)) // ♥
			} else {
				ctx.Send(v.Ref, w.selfMsg(core.LabelForward, u, sim.Leaving)) // ♣
			}
			return
		}
		w.anchor = v.Ref // ♠ adopt
		w.anchorMode = sim.Staying
		return
	}
	// Staying-to-staying: into P (the Section 4 adaptation).
	w.inner.Reintegrate(w.p(ctx), v.Ref)
}

// Undeliverable implements sim.UndeliverableHandler: a message to a gone
// process bounced. Only verify messages matter — every other message the
// wrapper addresses to a possibly-gone process carries nothing but the
// sender's own reference, so dropping it loses nothing. A bounced verify
// means the awaited answer will never come: record the target as Absent in
// every pending entry, drop it from the shed set and from P, and clear it
// as anchor.
func (w *Wrapper) Undeliverable(ctx sim.Context, to ref.Ref, msg sim.Message) {
	if msg.Label != LabelVerify {
		return
	}
	for _, e := range w.mlist {
		e.learn(to, sim.Absent) // ♠ belief update on an already-saved entry
	}
	w.shed.Remove(to) // reference to an absent process: no PG edge to keep (fdp:primitive)
	w.inner.Exclude(to)
	if w.anchor == to {
		w.anchor = ref.Nil // absent anchor (fdp:primitive)
	}
	if ctx.Mode() == sim.Staying {
		w.flush(ctx)
	}
}

// onPMessage handles a message of P itself.
func (w *Wrapper) onPMessage(ctx sim.Context, msg sim.Message) {
	u := ctx.Self()
	if ctx.Mode() == sim.Leaving {
		// A leaving process does not execute P's action; it presents itself
		// to every referenced process so references to it disappear.
		for _, ri := range msg.Refs {
			if ri.Ref != u {
				ctx.Send(ri.Ref, w.selfMsg(core.LabelPresent, u, sim.Leaving)) // ♦ presents its own reference
			}
		}
		return
	}
	refs := make([]ref.Ref, 0, len(msg.Refs))
	for _, ri := range msg.Refs {
		refs = append(refs, ri.Ref)
	}
	w.inner.Deliver(w.p(ctx), msg.Label, refs, msg.Payload)
}
