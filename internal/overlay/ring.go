package overlay

import (
	"slices"

	"fdp/internal/ref"
)

// Message labels of the sorted-ring protocol. oseek(m) travels rightwards
// carrying the reference of a node that believes it is the minimum; owrap(x)
// travels back from the maximum to close the ring.
const (
	LabelSeek = "oseek"
	LabelWrap = "owrap"
)

// SortRing stabilizes to the sorted ring: the doubly-linked sorted list
// plus a wrap edge between minimum and maximum in both directions (a
// simplified Re-Chord base ring). It extends the linearization protocol
// with endpoint discovery: the node with no left neighbor periodically
// launches a seek that is delegated rightwards until the node with no right
// neighbor stores it and answers with its own reference.
type SortRing struct {
	lin  *Linearize
	keys Keys
	// wrap is the ring-closing reference, meaningful only at the two
	// endpoints; ⊥ elsewhere.
	wrap ref.Ref
	// refs is the last enumeration Refs handed out (lin's, then wrap), and
	// refsLin the slice of lin's it was built from: while lin hands out an
	// equal slice and wrap is its last element, refs is handed out again.
	refs, refsLin []ref.Ref
}

var _ Protocol = (*SortRing)(nil)
var _ TargetChecker = (*SortRing)(nil)
var _ Cloneable = (*SortRing)(nil)

// NewSortRing returns a sorted-ring process using the given key order.
func NewSortRing(keys Keys) *SortRing {
	return &SortRing{lin: NewLinearize(keys), keys: keys}
}

// Name implements Protocol.
func (s *SortRing) Name() string { return "sortring" }

// AddNeighbor seeds the initial neighborhood — scenario construction only.
//
//fdp:primitive init
func (s *SortRing) AddNeighbor(v ref.Ref) { s.lin.AddNeighbor(v) }

// Wrap returns the ring-closing reference (⊥ if none).
func (s *SortRing) Wrap() ref.Ref { return s.wrap }

// Refs implements Protocol: the list neighborhood in ref.Sort order, then
// the wrap reference if one is stored. Shared and read-only until either
// changes.
func (s *SortRing) Refs() []ref.Ref {
	lin := s.lin.Refs()
	if s.wrap.IsNil() {
		return lin
	}
	if len(s.refs) != len(lin)+1 || s.refs[len(lin)] != s.wrap || !slices.Equal(s.refsLin, lin) {
		// A second enumeration of references lin and wrap already store: no
		// edge of PG is gained, lost or moved (fdp:primitive).
		s.refs = append(append(make([]ref.Ref, 0, len(lin)+1), lin...), s.wrap)
		s.refsLin = lin // fdp:primitive: lin's own read-only enumeration
	}
	return s.refs
}

// CloneOverlay implements Cloneable.
//
//fdp:primitive init
func (s *SortRing) CloneOverlay() Protocol {
	return &SortRing{lin: s.lin.CloneOverlay().(*Linearize), keys: s.keys, wrap: s.wrap}
}

// setWrap replaces the wrap reference; the old one is not deleted (that
// would risk disconnection) but moved into the ordinary neighborhood, where
// linearization delegates it away safely.
//
//fdp:primitive fusion
func (s *SortRing) setWrap(self, v ref.Ref) {
	if v == self || v == s.wrap {
		return
	}
	if !s.wrap.IsNil() {
		s.lin.n.Add(s.wrap)
	}
	s.wrap = v
}

// dropWrap moves the wrap reference into the ordinary neighborhood.
//
//fdp:primitive fusion
func (s *SortRing) dropWrap() {
	if !s.wrap.IsNil() {
		s.lin.n.Add(s.wrap)
		s.wrap = ref.Nil
	}
}

// Timeout implements Protocol: linearize, then run endpoint discovery.
func (s *SortRing) Timeout(ctx Context) {
	u := ctx.Self()
	s.lin.Timeout(ctx)
	left, right := s.lin.sides(u)
	switch {
	case len(left) == 0 && len(right) > 0:
		// I believe I am the minimum: launch a seek rightwards.
		ctx.Send(right[0], LabelSeek, []ref.Ref{u}, nil) // ♦ carries u's own reference
		// A stale wrap pointing left of the maximum is re-linearized; a
		// correct one is re-confirmed by the seek, so keeping it is safe.
	case len(left) > 0 && len(right) > 0:
		// Interior node: endpoints are the only wrap holders.
		s.dropWrap()
	}
}

// Deliver implements Protocol.
func (s *SortRing) Deliver(ctx Context, label string, refs []ref.Ref, payload any) {
	u := ctx.Self()
	switch label {
	case LabelSeek:
		if len(refs) != 1 || refs[0] == u {
			return
		}
		m := refs[0]
		_, right := s.lin.sides(u)
		if len(right) > 0 {
			// Delegation ♥: pass the seeker rightwards.
			ctx.Send(right[0], LabelSeek, []ref.Ref{m}, nil)
			return
		}
		// I believe I am the maximum: adopt the seeker as my wrap and
		// answer with my own reference (introduction ♦).
		s.setWrap(u, m)
		ctx.Send(m, LabelWrap, []ref.Ref{u}, nil) // ♦
	case LabelWrap:
		if len(refs) != 1 || refs[0] == u {
			return
		}
		s.setWrap(u, refs[0])
	default:
		s.lin.Deliver(ctx, label, refs, payload)
	}
}

// Reintegrate implements Protocol.
//
//fdp:primitive fusion
func (s *SortRing) Reintegrate(ctx Context, r ref.Ref) {
	s.lin.Reintegrate(ctx, r)
}

// InTarget implements TargetChecker: the sorted list plus mutual wrap
// references between minimum and maximum (for fewer than three members the
// wrap edges coincide with list edges and only the list is required).
func (s *SortRing) InTarget(members []ref.Ref, lookup func(ref.Ref) Protocol) bool {
	if len(members) == 0 {
		return true
	}
	sorted := append([]ref.Ref(nil), members...)
	s.keys.SortAsc(sorted)
	linLookup := func(r ref.Ref) Protocol {
		return lookup(r).(*SortRing).lin
	}
	if !s.lin.InTarget(members, linLookup) {
		return false
	}
	if len(sorted) < 3 {
		return true
	}
	min := lookup(sorted[0]).(*SortRing)
	max := lookup(sorted[len(sorted)-1]).(*SortRing)
	if min.wrap != sorted[len(sorted)-1] || max.wrap != sorted[0] {
		return false
	}
	for _, m := range sorted[1 : len(sorted)-1] {
		if !lookup(m).(*SortRing).wrap.IsNil() {
			return false
		}
	}
	return true
}

// Exclude implements Protocol: remove every stored occurrence of r,
// including the wrap reference.
//
//fdp:primitive reversal
func (s *SortRing) Exclude(r ref.Ref) {
	s.lin.Exclude(r)
	if s.wrap == r {
		s.wrap = ref.Nil
	}
}

// Lin exposes the underlying linearization state (for overlay.AsLinearize).
func (s *SortRing) Lin() *Linearize { return s.lin }
