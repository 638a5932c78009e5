package overlay

import (
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
	l1 ref.Set
}

var _ Protocol = (*SkipList)(nil)
var _ TargetChecker = (*SkipList)(nil)

// NewSkipList returns a skip-list process using the given key order.
func NewSkipList(keys Keys) *SkipList {
	return &SkipList{lin: NewLinearize(keys), keys: keys, l1: ref.NewSet()}
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
func (s *SkipList) Level1() ref.Set { return s.l1.Clone() }

// Refs implements Protocol.
func (s *SkipList) Refs() []ref.Ref {
	out := ref.NewSet(s.lin.Refs()...)
	for r := range s.l1 {
		out.Add(r)
	}
	return out.Sorted()
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
		for r := range s.l1 {
			s.lin.n.Add(r)
		}
		s.l1 = ref.NewSet() // ♠ refs kept at level 0 above
		return
	}
	// Drop any odd-key refs from level 1 into level 0 (local move). ♠
	for r := range s.l1 {
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
	for r := range s.l1 {
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
		want := ref.NewSet()
		if i > 0 {
			want.Add(evens[i-1])
		}
		if i+1 < len(evens) {
			want.Add(evens[i+1])
		}
		if !lookup(m).(*SkipList).l1.Equal(want) {
			return false
		}
	}
	return true
}

// Lin exposes the level-0 linearization state (for overlay.AsLinearize).
func (s *SkipList) Lin() *Linearize { return s.lin }
