// Package ref provides opaque process references.
//
// The paper restricts attention to copy-store-send protocols: the only
// operations a protocol may perform on a reference are copying it, storing
// it, sending it in a message, and testing two references for equality
// (v = w). In particular no arithmetic, hashing or ordering on references is
// available to a protocol. This package encodes that discipline in the type
// system: Ref is opaque, supports == via Go equality, and exposes nothing
// else to protocol code. Ordering and integer identities exist only for the
// simulator's bookkeeping (package-internal indexes, deterministic
// iteration) and for protocols that *explicitly* require a total order, such
// as overlay linearization, which obtain it through a Key assigned by the
// scenario, never through the reference itself.
package ref

import (
	"cmp"
	"slices"
	"strconv"
)

// Ref is an opaque reference to a process, analogous to knowing a node's IP
// address. The zero value is Nil, the "no reference" sentinel (⊥ in the
// paper). Two Refs are equal iff they reference the same process.
type Ref struct {
	id int32
}

// Nil is the absent reference, written ⊥ in the paper.
var Nil = Ref{}

// IsNil reports whether r is the absent reference ⊥.
func (r Ref) IsNil() bool { return r.id == 0 }

// String renders the reference for traces and tests. Protocol code must not
// parse this.
func (r Ref) String() string { return string(r.Append(nil)) }

// Append appends String's rendering of r to b.
func (r Ref) Append(b []byte) []byte {
	if r.IsNil() {
		return append(b, "⊥"...)
	}
	return strconv.AppendInt(append(b, 'p'), int64(r.id), 10)
}

// Space allocates references. It is the simulator's authority on which
// references exist; copy-store-send protocols cannot mint references, they
// can only receive them (Section 1.1).
type Space struct {
	next int32
}

// NewSpace returns an empty reference space.
func NewSpace() *Space { return &Space{next: 1} }

// New mints a fresh reference distinct from all previously minted ones.
func (s *Space) New() Ref {
	r := Ref{id: s.next}
	s.next++
	return r
}

// NewN mints n fresh references.
func (s *Space) NewN(n int) []Ref {
	out := make([]Ref, n)
	for i := range out {
		out[i] = s.New()
	}
	return out
}

// Count returns how many references have been minted.
func (s *Space) Count() int { return int(s.next - 1) }

// Index returns a dense 0-based index for r, valid for references minted by
// a Space. It is simulator bookkeeping, not available to protocols.
func Index(r Ref) int { return int(r.id) - 1 }

// ByIndex reconstructs the reference with dense index i (inverse of Index).
func ByIndex(i int) Ref { return Ref{id: int32(i) + 1} }

// Less imposes the simulator's deterministic iteration order. Protocols in
// the paper's model must not call this; overlay protocols that need a total
// order use scenario-assigned keys instead.
func Less(a, b Ref) bool { return a.id < b.id }

// Sort sorts refs in the simulator's deterministic order, without
// allocating.
func Sort(refs []Ref) {
	slices.SortFunc(refs, func(a, b Ref) int { return cmp.Compare(a.id, b.id) })
}

// Search finds r in sorted, a slice in Sort order without duplicates: it
// returns r's position and true, or the position r would be inserted at and
// false. Like Sort it serves deterministic enumeration — a protocol that
// keeps its reference set in Sort order finds a member without comparing
// identities itself — and is equally open to protocol code.
func Search(sorted []Ref, r Ref) (int, bool) {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid].id < r.id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(sorted) && sorted[lo] == r
}

// List is a set of references held as a slice in Sort order, without ⊥.
// Refs hands that slice out, read-only and shared with every caller until
// the set changes: a write that would change a handed-out slice copies
// first, so a slice once handed out is never written again — the contract
// sim.Protocol.Refs asks of every protocol. The zero value is empty.
type List struct {
	refs      []Ref
	handedOut bool
}

// Refs returns the members in Sort order. The caller must not modify the
// slice; it stays valid (unchanged) for as long as the caller holds it.
func (l *List) Refs() []Ref {
	l.handedOut = true
	return l.refs[:len(l.refs):len(l.refs)]
}

// Len returns the cardinality.
func (l *List) Len() int { return len(l.refs) }

// Has reports membership.
func (l *List) Has(r Ref) bool {
	_, ok := Search(l.refs, r)
	return ok
}

// own makes refs safe to write in place, with room for one more element: if
// the backing array was handed out, the writers go on with a copy of it.
func (l *List) own() {
	if l.handedOut {
		l.refs = append(make([]Ref, 0, len(l.refs)+1), l.refs...)
		l.handedOut = false
	}
}

// Add inserts r and reports whether it was new. Adding ⊥ is a no-op.
func (l *List) Add(r Ref) bool {
	i, ok := Search(l.refs, r)
	if ok || r.IsNil() {
		return false
	}
	l.own()
	l.refs = slices.Insert(l.refs, i, r)
	return true
}

// Remove deletes r and reports whether it was a member.
func (l *List) Remove(r Ref) bool {
	i, ok := Search(l.refs, r)
	if !ok {
		return false
	}
	l.own()
	l.refs = slices.Delete(l.refs, i, i+1)
	return true
}

// Clear empties the list. Shortening writes no element, so a handed-out
// slice needs no copy (the next Add makes one).
func (l *List) Clear() { l.refs = l.refs[:0] }

// Clone returns a copy with storage of its own.
func (l *List) Clone() List { return List{refs: slices.Clone(l.refs)} }

// Set is a set of references with deterministic iteration support.
type Set map[Ref]struct{}

// NewSet builds a set from the given references.
func NewSet(refs ...Ref) Set {
	s := make(Set, len(refs))
	for _, r := range refs {
		s.Add(r)
	}
	return s
}

// Add inserts r. Adding Nil is a no-op: ⊥ is not a process.
func (s Set) Add(r Ref) {
	if r.IsNil() {
		return
	}
	s[r] = struct{}{}
}

// Remove deletes r if present.
func (s Set) Remove(r Ref) { delete(s, r) }

// Has reports membership.
func (s Set) Has(r Ref) bool {
	_, ok := s[r]
	return ok
}

// Len returns the cardinality.
func (s Set) Len() int { return len(s) }

// Sorted returns the members in deterministic order.
func (s Set) Sorted() []Ref {
	out := make([]Ref, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	Sort(out)
	return out
}

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for r := range s {
		out[r] = struct{}{}
	}
	return out
}

// Equal reports whether two sets contain the same references.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for r := range s {
		if !t.Has(r) {
			return false
		}
	}
	return true
}
