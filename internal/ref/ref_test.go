package ref

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNil(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil must report IsNil")
	}
	if Nil.String() != "⊥" {
		t.Fatalf("Nil.String() = %q", Nil.String())
	}
	s := NewSpace()
	if s.New().IsNil() {
		t.Fatal("minted reference must not be nil")
	}
}

func TestSpaceMintsDistinct(t *testing.T) {
	s := NewSpace()
	seen := NewSet()
	for i := 0; i < 1000; i++ {
		r := s.New()
		if seen.Has(r) {
			t.Fatalf("duplicate reference %v at mint %d", r, i)
		}
		seen.Add(r)
	}
	if s.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count())
	}
}

func TestNewN(t *testing.T) {
	s := NewSpace()
	refs := s.NewN(5)
	if len(refs) != 5 {
		t.Fatalf("NewN(5) returned %d refs", len(refs))
	}
	for i, a := range refs {
		for j, b := range refs {
			if i != j && a == b {
				t.Fatalf("refs %d and %d equal", i, j)
			}
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	s := NewSpace()
	for i := 0; i < 100; i++ {
		r := s.New()
		if Index(r) != i {
			t.Fatalf("Index(%v) = %d, want %d", r, Index(r), i)
		}
		if ByIndex(i) != r {
			t.Fatalf("ByIndex(%d) = %v, want %v", i, ByIndex(i), r)
		}
	}
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	s := NewSpace()
	refs := s.NewN(50)
	for i := range refs {
		for j := range refs {
			switch {
			case i < j && !Less(refs[i], refs[j]):
				t.Fatalf("expected %v < %v", refs[i], refs[j])
			case i == j && Less(refs[i], refs[j]):
				t.Fatalf("ref not irreflexive: %v", refs[i])
			case i > j && Less(refs[i], refs[j]):
				t.Fatalf("order inverted for %v,%v", refs[i], refs[j])
			}
		}
	}
}

func TestSortDeterministic(t *testing.T) {
	s := NewSpace()
	refs := s.NewN(20)
	shuffled := []Ref{refs[7], refs[3], refs[19], refs[0], refs[11]}
	Sort(shuffled)
	want := []Ref{refs[0], refs[3], refs[7], refs[11], refs[19]}
	for i := range want {
		if shuffled[i] != want[i] {
			t.Fatalf("Sort order wrong at %d: got %v want %v", i, shuffled[i], want[i])
		}
	}
}

// Search must agree with a linear scan on every sorted subset's every probe:
// members are found where they are, strangers get the insertion point that
// keeps the slice in Sort order — ⊥ and a negative wire identity included.
func TestSearchFindsMembersAndInsertionPoints(t *testing.T) {
	all := append(NewSpace().NewN(9), Nil, FromWire(^uint32(2)))
	Sort(all)
	for mask := 0; mask < 1<<len(all); mask += 7 {
		var sorted []Ref
		for i, r := range all {
			if mask&(1<<i) != 0 {
				sorted = append(sorted, r)
			}
		}
		for _, r := range all {
			want, held := 0, false
			for _, s := range sorted {
				if Less(s, r) {
					want++
				}
				held = held || s == r
			}
			if at, ok := Search(sorted, r); at != want || ok != held {
				t.Fatalf("Search(%v, %v) = %d, %v; want %d, %v", sorted, r, at, ok, want, held)
			}
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSpace()
	a, b, c := s.New(), s.New(), s.New()
	set := NewSet(a, b)
	if !set.Has(a) || !set.Has(b) || set.Has(c) {
		t.Fatal("membership wrong")
	}
	set.Add(c)
	set.Remove(a)
	if set.Has(a) || !set.Has(c) || set.Len() != 2 {
		t.Fatal("add/remove wrong")
	}
}

func TestSetIgnoresNil(t *testing.T) {
	set := NewSet()
	set.Add(Nil)
	if set.Len() != 0 {
		t.Fatal("⊥ must not be storable in a Set")
	}
}

func TestSetCloneIndependent(t *testing.T) {
	s := NewSpace()
	a, b := s.New(), s.New()
	set := NewSet(a)
	cl := set.Clone()
	cl.Add(b)
	if set.Has(b) {
		t.Fatal("Clone must be independent")
	}
	if !cl.Has(a) {
		t.Fatal("Clone must contain original members")
	}
}

func TestSetEqual(t *testing.T) {
	s := NewSpace()
	a, b, c := s.New(), s.New(), s.New()
	if !NewSet(a, b).Equal(NewSet(b, a)) {
		t.Fatal("order must not matter")
	}
	if NewSet(a, b).Equal(NewSet(a, c)) {
		t.Fatal("different sets reported equal")
	}
	if NewSet(a, b).Equal(NewSet(a)) {
		t.Fatal("different sizes reported equal")
	}
}

func TestSetSortedMatchesMembership(t *testing.T) {
	s := NewSpace()
	refs := s.NewN(30)
	set := NewSet(refs[3], refs[9], refs[1])
	got := set.Sorted()
	want := []Ref{refs[1], refs[3], refs[9]}
	if len(got) != len(want) {
		t.Fatalf("Sorted length %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestQuickIndexInverse(t *testing.T) {
	f := func(n uint16) bool {
		i := int(n)
		return Index(ByIndex(i)) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A List behaves as a Set enumerated in Sort order, and no slice it handed
// out ever changes: random Add/Remove/Clear/Clone against a map model, with
// every handout held to its contents at the time.
func TestListMatchesSetAndKeepsHandouts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	refs := append([]Ref{Nil}, NewSpace().NewN(6)...)
	var l List
	model := NewSet()
	type handout struct{ got, want []Ref }
	var held []handout
	for op := 0; op < 5000; op++ {
		r := refs[rng.Intn(len(refs))]
		switch rng.Intn(6) {
		case 0, 1:
			if got, want := l.Add(r), !r.IsNil() && !model.Has(r); got != want {
				t.Fatalf("op %d: Add(%v) = %v, want %v", op, r, got, want)
			}
			model.Add(r)
		case 2:
			if got, want := l.Remove(r), model.Has(r); got != want {
				t.Fatalf("op %d: Remove(%v) = %v, want %v", op, r, got, want)
			}
			model.Remove(r)
		case 3:
			if rng.Intn(8) == 0 {
				l.Clear()
				model = NewSet()
			}
		case 4:
			c := l.Clone()
			c.Add(refs[1+rng.Intn(len(refs)-1)])
			c.Clear()
		default:
			got := l.Refs()
			held = append(held, handout{got, slices.Clone(got)})
		}
		// l.refs, not l.Refs(): handing out on every op would keep the
		// in-place write path from ever running.
		if !slices.Equal(l.refs, model.Sorted()) || l.Len() != model.Len() || l.Has(r) != model.Has(r) {
			t.Fatalf("op %d: list %v (len %d), model %v", op, l.refs, l.Len(), model.Sorted())
		}
		for i, h := range held {
			if !slices.Equal(h.got, h.want) {
				t.Fatalf("op %d: handout %d moved from %v to %v", op, i, h.want, h.got)
			}
		}
	}
}
