// Package ref stubs the reference types primdecomp keys on.
package ref

// Ref stubs ref.Ref.
type Ref uint32

// Nil is the null reference.
var Nil Ref

// Set stubs ref.Set.
type Set map[Ref]struct{}

// NewSet returns a set of the given refs.
func NewSet(rs ...Ref) Set {
	s := make(Set, len(rs))
	for _, r := range rs {
		s[r] = struct{}{}
	}
	return s
}

// Add inserts r.
func (s Set) Add(r Ref) { s[r] = struct{}{} }

// Remove deletes r.
func (s Set) Remove(r Ref) { delete(s, r) }

// List stubs ref.List.
type List struct{ refs []Ref }

// Add inserts r.
func (l *List) Add(r Ref) bool { l.refs = append(l.refs, r); return true }

// Clear empties the list.
func (l *List) Clear() { l.refs = nil }
