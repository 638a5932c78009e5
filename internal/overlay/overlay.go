// Package overlay implements overlay-maintenance protocols of the class 𝒫
// defined in Section 2: distributed protocols whose interactions decompose
// into the four primitives (and hence preserve weak connectivity), with the
// two additional algorithmic requirements of Section 4.1 — periodic
// self-introduction in their timeout action, and a postprocess hook able to
// reintegrate references from undeliverable messages.
//
// Three members of 𝒫 are provided, matching the families the paper cites:
//
//   - Linearize — topological self-stabilization to the sorted list
//     (Gall et al. [16], Onus–Richa–Scheideler linearization);
//   - SortRing  — the sorted ring (a simplified Re-Chord [22] base ring);
//   - CliqueTC  — clique formation by transitive closure (Berns et al. [7]).
//
// Overlay protocols are allowed something the departure protocol itself
// must not use: a fixed total order on processes. Keys models that order
// (think of it as the name/identifier baked into a process's address). The
// departure protocol of internal/core never touches keys.
//
//fdp:decomposable
package overlay

import (
	"fmt"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Keys is the global, immutable total order on processes that overlay
// protocols may consult (the paper's "fixed total order on the nodes").
type Keys map[ref.Ref]int

// Less compares two references by key.
func (k Keys) Less(a, b ref.Ref) bool { return k[a] < k[b] }

// SortAsc sorts refs ascending by key, in place.
func (k Keys) SortAsc(refs []ref.Ref) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && k.Less(refs[j], refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

// Context is the overlay protocol's interface to the system. In standalone
// operation it maps directly onto the simulator; inside the Section 4
// framework P′ every Send is intercepted by preprocess.
type Context interface {
	// Self returns the executing process's reference.
	Self() ref.Ref
	// Send asks the process referenced by to to execute the overlay action
	// label with the given reference parameters and extra payload.
	Send(to ref.Ref, label string, refs []ref.Ref, payload any)
}

// Protocol is one process's overlay-maintenance state: a member of 𝒫 with
// the Section 4 requirements.
type Protocol interface {
	// Name identifies the protocol family in reports.
	Name() string
	// Timeout is the P-timeout action; it must perform periodic
	// self-introduction to the whole neighborhood.
	Timeout(ctx Context)
	// Deliver executes the overlay action label. Unknown labels are
	// ignored.
	Deliver(ctx Context, label string, refs []ref.Ref, payload any)
	// Refs enumerates all stored references (explicit edges). Like
	// sim.Protocol's, the slice is read-only: the protocol may hand the same
	// slice to every caller until its stored references change, and never
	// writes a slice it has handed out. The Section 4 wrapper relies on that
	// to keep one handed-out slice until something changes.
	Refs() []ref.Ref
	// Reintegrate is the postprocess hook: it re-absorbs a (staying)
	// reference extracted from a message that could not be delivered as
	// intended.
	Reintegrate(ctx Context, r ref.Ref)
	// Exclude removes every stored occurrence of r — the postprocess hook
	// for references of leaving processes. The caller is responsible for
	// keeping the overlay connected (it hands r's process the caller's own
	// reference, a Reversal).
	Exclude(r ref.Ref)
}

// Cloneable is implemented by overlay states that can be deep-copied, which
// is what lets a world running them be cloned (Standalone and the Section 4
// wrapper implement sim.CloneableProtocol through it). All four overlays
// and the routing layer of internal/app implement it.
type Cloneable interface {
	Protocol
	// CloneOverlay returns a deep copy sharing no mutable state.
	CloneOverlay() Protocol
}

// TargetChecker is implemented by protocols that can recognize their own
// target topology given the full member list (used by tests and benches;
// this is the experimenter's bird's-eye view, not protocol knowledge).
type TargetChecker interface {
	// InTarget reports whether the stored neighborhoods of all members
	// form the protocol's target topology. members must be every relevant
	// process running this protocol, and lookup resolves each member's
	// protocol instance.
	InTarget(members []ref.Ref, lookup func(ref.Ref) Protocol) bool
}

// --- Standalone adapter ---------------------------------------------------

// Standalone adapts an overlay Protocol to sim.Protocol, for running an
// overlay without the departure framework (everybody staying). Reference
// parameters travel with a Staying claim, which is correct in that setting.
type Standalone struct {
	P Protocol
}

var _ sim.CloneableProtocol = (*Standalone)(nil)

// Timeout implements sim.Protocol.
func (s *Standalone) Timeout(ctx sim.Context) {
	s.P.Timeout(&standaloneCtx{ctx})
}

// Deliver implements sim.Protocol.
func (s *Standalone) Deliver(ctx sim.Context, msg sim.Message) {
	refs := make([]ref.Ref, len(msg.Refs))
	for i, ri := range msg.Refs {
		refs[i] = ri.Ref
	}
	s.P.Deliver(&standaloneCtx{ctx}, msg.Label, refs, msg.Payload)
}

// Refs implements sim.Protocol.
func (s *Standalone) Refs() []ref.Ref { return s.P.Refs() }

// CloneProtocol implements sim.CloneableProtocol; it panics if P is not
// Cloneable.
//
//fdp:primitive init
func (s *Standalone) CloneProtocol() sim.Protocol {
	return &Standalone{P: CloneOf(s.P)}
}

// CloneOf deep-copies an overlay state, panicking if it is not Cloneable.
func CloneOf(p Protocol) Protocol {
	c, ok := p.(Cloneable)
	if !ok {
		panic(fmt.Sprintf("overlay: protocol %s is not cloneable", p.Name()))
	}
	return c.CloneOverlay()
}

type standaloneCtx struct{ inner sim.Context }

func (c *standaloneCtx) Self() ref.Ref { return c.inner.Self() }

func (c *standaloneCtx) Send(to ref.Ref, label string, refs []ref.Ref, payload any) {
	ris := make([]sim.RefInfo, len(refs))
	for i, r := range refs {
		ris[i] = sim.RefInfo{Ref: r, Mode: sim.Staying}
	}
	c.inner.Send(to, sim.Message{Label: label, Refs: ris, Payload: payload}) // transport only: the caller's overlay-level Send is the audited move (fdp:primitive)
}

// CheckTarget is a convenience wrapper resolving Standalone instances in a
// world and asking the protocol's TargetChecker.
func CheckTarget(w *sim.World, members []ref.Ref) bool {
	if len(members) == 0 {
		return true
	}
	lookup := func(r ref.Ref) Protocol {
		switch p := w.ProtocolOf(r).(type) {
		case *Standalone:
			return p.P
		case interface{ Overlay() Protocol }:
			return p.Overlay()
		default:
			panic(fmt.Sprintf("overlay: process %v runs no overlay protocol", r))
		}
	}
	first := lookup(members[0])
	tc, ok := first.(TargetChecker)
	if !ok {
		panic(fmt.Sprintf("overlay: protocol %s has no target checker", first.Name()))
	}
	return tc.InTarget(members, lookup)
}
