package core

import (
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Phi computes the potential function Φ of the Lemma 3 proof: the amount of
// invalid information in the system, i.e. the number of edges (x,y) —
// explicit or implicit — such that mode(y) differs from x's knowledge
// x.mode(y). The protocol never increases Φ, and as long as Φ > 0 it
// eventually decreases, which drives the liveness argument.
//
// Edges to gone processes are not part of PG and do not count.
func Phi(w *sim.World) int {
	phi := 0
	for _, x := range w.Refs() {
		if w.LifeOf(x) == sim.Gone {
			continue
		}
		// Explicit edges: stored beliefs of any protocol exposing them.
		if holder, ok := w.ProtocolOf(x).(BeliefHolder); ok {
			for _, b := range holder.Beliefs() {
				if countsAsInvalid(w, b) {
					phi++
				}
			}
		}
		// Implicit edges: claims in the channel.
		for _, m := range w.ChannelSnapshot(x) {
			for _, b := range m.Refs {
				if countsAsInvalid(w, b) {
					phi++
				}
			}
		}
	}
	return phi
}

// BeliefHolder is implemented by protocols that store mode knowledge along
// with references (Proc does; the Section 4 framework wrapper does too).
type BeliefHolder interface {
	Beliefs() []sim.RefInfo
}

func countsAsInvalid(w *sim.World, b sim.RefInfo) bool {
	if b.Ref.IsNil() {
		return false
	}
	// Unknown references occur in snapshot worlds that omit gone
	// processes; like gone ones, they are outside PG and never count.
	if !w.Has(b.Ref) || w.LifeOf(b.Ref) == sim.Gone {
		return false
	}
	// Unknown is the framework's "not verified yet" marker, not a mode
	// claim; it never counts as invalid information.
	if b.Mode == sim.Unknown {
		return false
	}
	return b.Mode != w.ModeOf(b.Ref)
}

// Valid reports whether the system state is valid per Section 3: no
// relevant process has invalid information stored or in flight (Φ would be
// 0 if additionally no irrelevant process held any).
func Valid(w *sim.World) bool { return Phi(w) == 0 }

// AnchorsConsistent reports whether every staying process has anchor ⊥ and
// every leaving process's anchor (if any) references a staying process —
// the anchor part of a legitimate state. Used by closure tests.
func AnchorsConsistent(w *sim.World) bool {
	for _, x := range w.Refs() {
		if w.LifeOf(x) == sim.Gone {
			continue
		}
		p, ok := w.ProtocolOf(x).(*Proc)
		if !ok {
			continue
		}
		a := p.Anchor()
		if a.IsNil() {
			continue
		}
		if w.ModeOf(x) == sim.Staying {
			return false
		}
		if w.LifeOf(a) != sim.Gone && w.ModeOf(a) != sim.Staying {
			return false
		}
	}
	return true
}

// LeaversWithNeighbors returns the leaving processes that still store
// ordinary (non-anchor) references — a progress metric for traces.
func LeaversWithNeighbors(w *sim.World) []ref.Ref {
	var out []ref.Ref
	for _, x := range w.Refs() {
		if w.LifeOf(x) == sim.Gone || w.ModeOf(x) != sim.Leaving {
			continue
		}
		if p, ok := w.ProtocolOf(x).(*Proc); ok && len(p.NeighborRefs()) > 0 {
			out = append(out, x)
		}
	}
	return out
}
