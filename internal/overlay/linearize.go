package overlay

import (
	"slices"

	"fdp/internal/ref"
)

// LabelLink is the single message label of the linearization protocol: a
// link(v) message introduces or delegates the reference v to the receiver.
const LabelLink = "olink"

// Linearize is the list linearization protocol: from any weakly connected
// initial graph it stabilizes to the doubly-linked sorted list. Its actions
// decompose into the four primitives: keeping the closest neighbor on each
// side (fusion of duplicates), delegating every farther neighbor to the
// closest one on that side (delegation), and periodically self-introducing
// to both kept neighbors (introduction).
type Linearize struct {
	keys Keys
	n    ref.List
}

var _ Protocol = (*Linearize)(nil)
var _ TargetChecker = (*Linearize)(nil)
var _ Cloneable = (*Linearize)(nil)

// NewLinearize returns a linearization process using the given key order.
func NewLinearize(keys Keys) *Linearize {
	return &Linearize{keys: keys}
}

// Name implements Protocol.
func (l *Linearize) Name() string { return "linearize" }

// AddNeighbor seeds the initial neighborhood — scenario construction only.
//
//fdp:primitive init
func (l *Linearize) AddNeighbor(v ref.Ref) { l.n.Add(v) }

// Refs implements Protocol: the neighborhood in ref.Sort order, shared and
// read-only until it changes.
func (l *Linearize) Refs() []ref.Ref { return l.n.Refs() }

// Neighbors returns a copy of the stored neighborhood.
func (l *Linearize) Neighbors() ref.Set { return ref.NewSet(l.n.Refs()...) }

// CloneOverlay implements Cloneable. The key order is immutable and shared.
//
//fdp:primitive init
func (l *Linearize) CloneOverlay() Protocol { return &Linearize{keys: l.keys, n: l.n.Clone()} }

// sides splits the neighborhood into left (smaller key) and right (larger
// key) of self, each sorted by distance from self (closest first).
func (l *Linearize) sides(self ref.Ref) (left, right []ref.Ref) {
	for _, r := range l.n.Refs() {
		if l.keys.Less(r, self) {
			left = append(left, r)
		} else if l.keys.Less(self, r) {
			right = append(right, r)
		}
	}
	l.keys.SortAsc(left)
	// left closest-first means descending keys.
	for i, j := 0, len(left)-1; i < j; i, j = i+1, j-1 {
		left[i], left[j] = left[j], left[i]
	}
	l.keys.SortAsc(right)
	return left, right
}

// Timeout implements Protocol: the linearization step plus periodic
// self-introduction (the Section 4.1 requirement).
func (l *Linearize) Timeout(ctx Context) {
	u := ctx.Self()
	left, right := l.sides(u)
	if len(left) > 0 {
		closest := left[0]
		for _, v := range left[1:] {
			// Delegation ♥: hand the farther-left reference to the closest
			// left neighbor and forget it.
			l.n.Remove(v)                                   // ♥
			ctx.Send(closest, LabelLink, []ref.Ref{v}, nil) // ♥
		}
		// Introduction ♦: periodic self-introduction.
		ctx.Send(closest, LabelLink, []ref.Ref{u}, nil)
	}
	if len(right) > 0 {
		closest := right[0]
		for _, v := range right[1:] {
			l.n.Remove(v) // ♥
			ctx.Send(closest, LabelLink, []ref.Ref{v}, nil)
		}
		ctx.Send(closest, LabelLink, []ref.Ref{u}, nil) // ♦ self-introduction
	}
}

// Deliver implements Protocol.
func (l *Linearize) Deliver(ctx Context, label string, refs []ref.Ref, payload any) {
	if label != LabelLink || len(refs) != 1 {
		return
	}
	v := refs[0]
	if v == ctx.Self() {
		return // self-references carry no information
	}
	l.n.Add(v) // Fusion ♠ by set semantics when already known
}

// Reintegrate implements Protocol: an undeliverable reference is simply a
// new neighbor candidate, linearized away on the next timeout.
//
//fdp:primitive fusion
func (l *Linearize) Reintegrate(ctx Context, r ref.Ref) {
	if r != ctx.Self() {
		l.n.Add(r)
	}
}

// AsLinearize extracts the linearization state from a protocol that is or
// embeds Linearize (nil if neither).
func AsLinearize(p Protocol) *Linearize {
	switch v := p.(type) {
	case *Linearize:
		return v
	case interface{ Lin() *Linearize }:
		return v.Lin()
	}
	return nil
}

// Lin exposes the linearization state for embedding protocols.
func (l *Linearize) Lin() *Linearize { return l }

// InTarget implements TargetChecker: the stored neighborhoods form exactly
// the doubly-linked sorted list over members.
func (l *Linearize) InTarget(members []ref.Ref, lookup func(ref.Ref) Protocol) bool {
	if len(members) == 0 {
		return true
	}
	sorted := append([]ref.Ref(nil), members...)
	l.keys.SortAsc(sorted)
	for i, m := range sorted {
		p := AsLinearize(lookup(m))
		if p == nil {
			return false
		}
		if !slices.Equal(p.n.Refs(), listNeighbors(sorted, i)) {
			return false
		}
	}
	return true
}

// Exclude implements Protocol: remove every stored occurrence of r.
//
//fdp:primitive reversal
func (l *Linearize) Exclude(r ref.Ref) { l.n.Remove(r) }

// listNeighbors returns, in ref.Sort order, the members beside position i of
// a key-sorted list: what a process at i stores in the doubly-linked list.
func listNeighbors(sorted []ref.Ref, i int) []ref.Ref {
	var want []ref.Ref
	if i > 0 {
		want = append(want, sorted[i-1])
	}
	if i+1 < len(sorted) {
		want = append(want, sorted[i+1])
	}
	ref.Sort(want)
	return want
}
