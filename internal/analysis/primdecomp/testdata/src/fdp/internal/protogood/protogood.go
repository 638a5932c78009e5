// Package protogood is a decomposable fixture protocol: a mix of
// sanctioned moves (suit markers, classified functions), unsanctioned
// direct moves, and an unsanctioned move reached only through an
// unexported helper — the diagnostic must surface at the exported caller
// with the full call path.
//
//fdp:decomposable
package protogood

import (
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// P implements sim.Protocol.
type P struct {
	n       ref.Set
	shed    ref.List
	beliefs map[ref.Ref]sim.Mode
	anchor  ref.Ref
}

// Timeout is fully sanctioned: every move carries its primitive.
func (p *P) Timeout(ctx sim.Context) {
	for r := range p.n {
		ctx.Send(r, sim.Message{Label: "present", Refs: []sim.RefInfo{{Ref: ctx.Self()}}}) // ♦ self-introduction
	}
	// Fusion ♠: the anchor folds back into the neighborhood.
	p.n.Add(p.anchor)
}

// Refs implements sim.Protocol.
func (p *P) Refs() []ref.Ref {
	out := make([]ref.Ref, 0, len(p.n))
	for r := range p.n {
		out = append(out, r)
	}
	return out
}

// Absorb stores an incoming reference without declaring a primitive.
func (p *P) Absorb(v ref.Ref) {
	p.n.Add(v) // want "unsanctioned reference move outside the primitive vocabulary: Absorb .*: mutates the reference set p.n"
}

// Shed keeps a reference in a sorted list without declaring a primitive;
// clearing the list afterwards is sanctioned by its marker.
func (p *P) Shed(v ref.Ref) {
	p.shed.Add(v)  // want "unsanctioned reference move outside the primitive vocabulary: Shed .*: mutates the reference set p.shed"
	p.shed.Clear() // ♣ handed back
}

// Believe writes through a ref-keyed map: the key is the reference, so the
// store is a move even though the element type is plain data.
func (p *P) Believe(v ref.Ref, m sim.Mode) {
	p.beliefs[v] = m // want "unsanctioned reference move outside the primitive vocabulary: Believe .*: stores a reference into p.beliefs"
}

// Exclude moves only through the unexported helper; the path in the
// diagnostic must name both frames.
func (p *P) Exclude(v ref.Ref) {
	p.drop(v) // want "unsanctioned reference move outside the primitive vocabulary: Exclude .*: calls drop → drop .*: deletes a reference entry from p.n"
}

func (p *P) drop(v ref.Ref) {
	delete(p.n, v)
}

// SetNeighbor is scenario construction, classified out of the audit.
//
//fdp:primitive init
func (p *P) SetNeighbor(v ref.Ref) {
	p.n.Add(v)
}

// Reintegrate is a genuine primitive, declared as such.
//
//fdp:primitive fusion
func (p *P) Reintegrate(v ref.Ref) {
	p.n.Add(v)
}
