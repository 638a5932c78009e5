package graph

import (
	"slices"
	"sync/atomic"

	"fdp/internal/ref"
)

// Pair is one entry of a ledger row: a neighbour and the number of edges
// joining the pair.
type Pair = Entry[ref.Ref, int32]

// Ledger is the relevant-degree ledger both engines keep (DESIGN.md §7,
// §12): one Row per leaving process, neighbour → process-graph edges joining
// the pair, explicit or implicit, either direction. The pair rule: a pair
// counts only in the row of an endpoint that leaves, so a leaver's row length
// is its degree. Which edges exist (both engines: only between two live,
// distinct processes) and locking are the caller's. The zero value holds no
// process; Reset sizes it.
type Ledger struct {
	// slot maps ref.Index to 1 + the index of the process's row in rows, 0
	// for a staying or retired process: no pointer for the collector to
	// scan.
	slot []int32
	rows []Row[ref.Ref, int32]
	// leavers counts the rows Leave gave and Retire has not taken back. Leave
	// runs only before the ledger is shared; Retire may run on several
	// goroutines at once, each holding the lock of the row it retires, and
	// those touch disjoint slots but this one word.
	leavers atomic.Int32
}

// Reset empties the ledger and sizes it for the processes indexed below n,
// none of them leaving.
func (l *Ledger) Reset(n int) {
	l.slot = make([]int32, n)
	l.rows = nil
	l.leavers.Store(0)
}

// CopyOf makes l a copy of src sized for the processes indexed below n: the
// same rows in the same order, each row's entries in the same order. Every
// entry lives in one backing array, each row capped at twice its length so
// it grows in place until it doubles, and a row src indexes gets an index of
// its own. src must hold no row at an index of n or above; it is only read.
func (l *Ledger) CopyOf(src *Ledger, n int) {
	l.slot = make([]int32, n)
	copy(l.slot, src.slot)
	l.rows = make([]Row[ref.Ref, int32], len(src.rows))
	total := 0
	for i := range src.rows {
		total += 2 * src.rows[i].Len()
	}
	arena := make([]Pair, total)
	for i := range src.rows {
		ents := src.rows[i].ents
		k := len(ents)
		if k == 0 {
			continue
		}
		r := &l.rows[i]
		r.ents, arena = arena[:k:2*k], arena[2*k:]
		copy(r.ents, ents)
		if src.rows[i].idx != nil {
			r.buildIndex()
		}
	}
	l.leavers.Store(src.leavers.Load())
}

// Leave gives the leaver u its row, after Reset and before anything is
// counted.
func (l *Ledger) Leave(u ref.Ref) {
	l.rows = append(l.rows, Row[ref.Ref, int32]{})
	l.slot[ref.Index(u)] = int32(len(l.rows))
	l.leavers.Add(1)
}

// Leavers returns the number of leavers holding a row: given one by Leave,
// not yet retired. While it is zero no pair can count, so an engine may stop
// feeding the ledger until it resets it.
func (l *Ledger) Leavers() int { return int(l.leavers.Load()) }

// row returns u's row, or nil if u stays or was retired.
func (l *Ledger) row(u ref.Ref) *Row[ref.Ref, int32] {
	if s := l.slot[ref.Index(u)]; s > 0 {
		return &l.rows[s-1]
	}
	return nil
}

// Count applies d (+1 or -1) copies of an edge between the distinct
// processes a and b, in the row of each endpoint that leaves, and reports
// whether each row's length changed. A decrement of a pair a row does not
// hold is a no-op.
func (l *Ledger) Count(a, b ref.Ref, d int32) (aMoved, bMoved bool) {
	if r := l.row(a); r != nil {
		aMoved = bump(r, b, d)
	}
	if r := l.row(b); r != nil {
		bMoved = bump(r, a, d)
	}
	return aMoved, bMoved
}

// bump adds d to k's count in r — an increment of a key r does not hold
// creates its entry, a count that falls to zero swap-removes it, a decrement
// of a key r does not hold is a no-op — and reports whether r's length
// changed.
func bump(r *Row[ref.Ref, int32], k ref.Ref, d int32) bool {
	i := r.Find(k)
	if i < 0 {
		if d <= 0 {
			return false
		}
		*r.push(k) = d
		return true
	}
	c := &r.ents[i].Val
	if *c += d; *c > 0 {
		return false
	}
	r.Remove(i)
	return true
}

// Degree returns the number of neighbours in u's row.
func (l *Ledger) Degree(u ref.Ref) int { return len(l.Pairs(u)) }

// Pairs returns u's row, empty if u stays or was retired. The caller must
// not retain it across a change of the row.
func (l *Ledger) Pairs(u ref.Ref) []Pair {
	if r := l.row(u); r != nil {
		return r.Entries()
	}
	return nil
}

// Retire takes the leaver u's row away and hands what it held to the
// caller, which erases u from each neighbour's row with Forget; u then
// counts like a stayer, and a second Retire returns nothing. A stayer has no
// row listing the leavers that count it: an engine rebuilds after its exit.
func (l *Ledger) Retire(u ref.Ref) []Pair {
	r := l.row(u)
	if r == nil {
		return nil
	}
	pairs := r.Entries()
	*r = Row[ref.Ref, int32]{}
	l.slot[ref.Index(u)] = 0
	l.leavers.Add(-1)
	return pairs
}

// Forget erases u from q's row and reports whether it was there.
func (l *Ledger) Forget(q, u ref.Ref) bool {
	if r := l.row(q); r != nil {
		if i := r.Find(u); i >= 0 {
			r.Remove(i)
			return true
		}
	}
	return false
}

// Exit removes the leaver u with every pair it has: Retire, then Forget in
// each neighbour's row.
func (l *Ledger) Exit(u ref.Ref) {
	for _, p := range l.Retire(u) {
		l.Forget(p.Key, u)
	}
}

// RefDiff holds the sort buffers of Resync; the zero value is ready. One
// per goroutine that resyncs.
type RefDiff struct{ was, now []ref.Ref }

// Resync is the end-of-action diff of cur, a process's stored references,
// against *synced, the list its last sync took, and then makes *synced cur
// itself. Both are slices a protocol handed out (sim.Protocol.Refs), which
// nobody writes: Resync writes neither, it sorts copies in diff's buffers.
// It returns the multiset delta in reference order, in those buffers until
// the next call: added holds each copy cur has beyond *synced's, gone each
// copy *synced had beyond cur's. An unchanged store (Refs is deterministic)
// costs one comparison.
func (diff *RefDiff) Resync(synced *[]ref.Ref, cur []ref.Ref) (added, gone []ref.Ref) {
	was := *synced
	*synced = cur
	if slices.Equal(cur, was) {
		return nil, nil
	}
	was = append(diff.was[:0], was...)
	now := append(diff.now[:0], cur...)
	diff.was, diff.now = was, now
	ref.Sort(was)
	ref.Sort(now)
	// Merge, compacting each side's surplus behind its read position.
	added, gone = now[:0], was[:0]
	i, j := 0, 0
	for i < len(was) || j < len(now) {
		switch {
		case j == len(now) || i < len(was) && ref.Less(was[i], now[j]):
			gone = append(gone, was[i])
			i++
		case i == len(was) || ref.Less(now[j], was[i]):
			added = append(added, now[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return added, gone
}
