package overlay

import (
	"slices"

	"fdp/internal/ref"
)

// Message labels of the skip-list protocol (on top of the linearization
// label). A probe travels rightwards along level 0 until it reaches the
// next even-rank node; lvl1 carries a level-1 reference.
const (
	LabelProbe = "ol1probe"
	LabelLvl1  = "olvl1"
)

// SkipList stabilizes to a two-level skip list in the spirit of Tiara
// (Clouser, Nesterenko, Scheideler): level 0 is the doubly-linked sorted
// list over all nodes; level 1 is the doubly-linked sorted list over the
// nodes with even keys, giving lookups their shortcut hops. All actions
// decompose into the four primitives — probes delegate references along
// level 0, adoption stores them, and duplicates fuse.
type SkipList struct {
	lin  *Linearize
	keys Keys
	// l1 is the level-1 neighborhood (even-key nodes only; drained into
	// level 0 at odd nodes, where any content is initial-state garbage).
	l1 ref.List
	// refs is the last union Refs handed out, and refsLin and refsL1 the
	// enumerations of the two levels it was built from: while both levels
	// hand out equal slices, refs is handed out again.
	refs, refsLin, refsL1 []ref.Ref
}

var _ Protocol = (*SkipList)(nil)
var _ TargetChecker = (*SkipList)(nil)
var _ Cloneable = (*SkipList)(nil)

// NewSkipList returns a skip-list process using the given key order.
func NewSkipList(keys Keys) *SkipList {
	return &SkipList{lin: NewLinearize(keys), keys: keys}
}

// Name implements Protocol.
func (s *SkipList) Name() string { return "skiplist" }

// AddNeighbor seeds the level-0 neighborhood — scenario construction only.
//
//fdp:primitive init
func (s *SkipList) AddNeighbor(v ref.Ref) { s.lin.AddNeighbor(v) }

// AddLevel1 seeds the level-1 neighborhood — scenario construction only
// (possibly deliberately wrong, for stabilization tests).
//
//fdp:primitive init
func (s *SkipList) AddLevel1(v ref.Ref) { s.l1.Add(v) }

// Level1 returns a copy of the level-1 neighborhood.
func (s *SkipList) Level1() ref.Set { return ref.NewSet(s.l1.Refs()...) }

// Refs implements Protocol: the union of both levels in ref.Sort order,
// shared and read-only until either level changes.
func (s *SkipList) Refs() []ref.Ref {
	lin, l1 := s.lin.Refs(), s.l1.Refs()
	if len(l1) == 0 {
		return lin
	}
	if s.refs == nil || !slices.Equal(s.refsLin, lin) || !slices.Equal(s.refsL1, l1) {
		// A second enumeration of references the two levels already store:
		// no edge of PG is gained, lost or moved (fdp:primitive).
		s.refs = union(lin, l1)
		s.refsLin, s.refsL1 = lin, l1 // fdp:primitive: the levels' own read-only enumerations
	}
	return s.refs
}

// union merges two lists in ref.Sort order without duplicates into a new
// slice of exactly the union's length.
func union(a, b []ref.Ref) []ref.Ref {
	out := append(append(make([]ref.Ref, 0, len(a)+len(b)), a...), b...)
	ref.Sort(out)
	out = slices.Compact(out)
	return out[:len(out):len(out)]
}

// CloneOverlay implements Cloneable.
//
//fdp:primitive init
func (s *SkipList) CloneOverlay() Protocol {
	return &SkipList{lin: s.lin.CloneOverlay().(*Linearize), keys: s.keys, l1: s.l1.Clone()}
}

func (s *SkipList) even(r ref.Ref) bool { return s.keys[r]%2 == 0 }

// Timeout implements Protocol: linearize level 0; even nodes additionally
// linearize level 1 among even nodes and probe rightwards for their level-1
// successor; odd nodes drain any level-1 garbage into level 0.
func (s *SkipList) Timeout(ctx Context) {
	u := ctx.Self()
	s.lin.Timeout(ctx)
	if !s.even(u) {
		// Initial-state garbage: an odd node has no level 1; the refs are
		// kept by handing them to level 0 (local move, no edge change). ♠
		for _, r := range s.l1.Refs() {
			s.lin.n.Add(r)
		}
		s.l1.Clear() // ♠ refs kept at level 0 above
		return
	}
	// Drop any odd-key refs from level 1 into level 0 (local move). ♠
	for _, r := range s.l1.Refs() {
		if !s.even(r) {
			s.lin.n.Add(r)
			s.l1.Remove(r)
		}
	}
	// Linearize level 1 among even nodes: keep the closest even neighbor
	// per side, delegate farther ones toward it.
	left, right := s.l1Sides(u)
	if len(left) > 0 {
		for _, v := range left[1:] {
			s.l1.Remove(v)                                  // ♥
			ctx.Send(left[0], LabelLvl1, []ref.Ref{v}, nil) // ♥
		}
		ctx.Send(left[0], LabelLvl1, []ref.Ref{u}, nil) // ♦ self-introduction
	}
	if len(right) > 0 {
		for _, v := range right[1:] {
			s.l1.Remove(v) // ♥
			ctx.Send(right[0], LabelLvl1, []ref.Ref{v}, nil)
		}
		ctx.Send(right[0], LabelLvl1, []ref.Ref{u}, nil) // ♦ self-introduction
	}
	// Probe rightwards along level 0 for the next even node, so level 1
	// gets discovered even from a bare list.
	if _, l0Right := s.lin.sides(u); len(l0Right) > 0 {
		ctx.Send(l0Right[0], LabelProbe, []ref.Ref{u}, nil) // ♦/♥ chain
	}
}

// l1Sides splits the level-1 neighborhood, closest first.
func (s *SkipList) l1Sides(self ref.Ref) (left, right []ref.Ref) {
	for _, r := range s.l1.Refs() {
		if s.keys.Less(r, self) {
			left = append(left, r)
		} else if s.keys.Less(self, r) {
			right = append(right, r)
		}
	}
	s.keys.SortAsc(left)
	for i, j := 0, len(left)-1; i < j; i, j = i+1, j-1 {
		left[i], left[j] = left[j], left[i]
	}
	s.keys.SortAsc(right)
	return left, right
}

// Deliver implements Protocol.
func (s *SkipList) Deliver(ctx Context, label string, refs []ref.Ref, payload any) {
	u := ctx.Self()
	switch label {
	case LabelProbe:
		if len(refs) != 1 || refs[0] == u {
			return
		}
		m := refs[0]
		if s.even(u) {
			// The probe found its level-1 successor: adopt and answer. ♠/♦
			s.l1.Add(m)
			ctx.Send(m, LabelLvl1, []ref.Ref{u}, nil) // ♦
			return
		}
		// Odd node: pass the probe rightwards along level 0. ♥
		if _, right := s.lin.sides(u); len(right) > 0 {
			ctx.Send(right[0], LabelProbe, []ref.Ref{m}, nil)
			return
		}
		// No right neighbor (list end): keep the reference at level 0. ♠
		s.lin.n.Add(m)
	case LabelLvl1:
		if len(refs) != 1 || refs[0] == u {
			return
		}
		if s.even(u) && s.even(refs[0]) {
			s.l1.Add(refs[0]) // ♠
		} else {
			s.lin.n.Add(refs[0]) // garbage flows back to level 0 ♠
		}
	default:
		s.lin.Deliver(ctx, label, refs, payload)
	}
}

// Reintegrate implements Protocol.
//
//fdp:primitive fusion
func (s *SkipList) Reintegrate(ctx Context, r ref.Ref) {
	s.lin.Reintegrate(ctx, r)
}

// Exclude implements Protocol.
//
//fdp:primitive reversal
func (s *SkipList) Exclude(r ref.Ref) {
	s.lin.Exclude(r)
	s.l1.Remove(r)
}

// InTarget implements TargetChecker: level 0 is the sorted list over all
// members, level 1 the doubly-linked sorted list over the even-key members
// (single even members hold an empty level 1), and odd members hold no
// level-1 state.
func (s *SkipList) InTarget(members []ref.Ref, lookup func(ref.Ref) Protocol) bool {
	if len(members) == 0 {
		return true
	}
	linLookup := func(r ref.Ref) Protocol { return lookup(r).(*SkipList).lin }
	if !s.lin.InTarget(members, linLookup) {
		return false
	}
	var evens []ref.Ref
	for _, m := range members {
		if s.even(m) {
			evens = append(evens, m)
		} else if lookup(m).(*SkipList).l1.Len() != 0 {
			return false
		}
	}
	s.keys.SortAsc(evens)
	for i, m := range evens {
		if !slices.Equal(lookup(m).(*SkipList).l1.Refs(), listNeighbors(evens, i)) {
			return false
		}
	}
	return true
}

// Lin exposes the level-0 linearization state (for overlay.AsLinearize).
func (s *SkipList) Lin() *Linearize { return s.lin }
