package graph

// Entry is one slot of a Row: a key and what the row's owner keeps about it.
type Entry[K comparable, V any] struct {
	Key K
	Val V
}

// wideRow is the row length past which a Row carries a key→slot index.
// Below it a linear scan over a few small entries beats a hash probe; above
// it (hubs: a star's centre, a process everyone was introduced to) the index
// keeps every operation O(1) expected.
const wideRow = 32

// Row is a dense keyed row with one entry per distinct key, so its length is
// the number of keys — a node's adjacency in Graph (one entry per distinct
// undirected neighbour, Degree is a length) and a leaver's row of the degree
// ledger both engines keep (Ledger: neighbour → edges joining the pair).
// Order is insertion order perturbed by swap-removal. The zero value is an
// empty row.
type Row[K comparable, V any] struct {
	ents []Entry[K, V]
	// idx maps key to slot. Built when the row grows past wideRow, dropped
	// when it shrinks to half of that, so a row hovering at the threshold
	// does not rebuild it on every operation.
	idx map[K]int32
}

// Len returns the number of entries.
func (r *Row[K, V]) Len() int { return len(r.ents) }

// Entries returns the entries in row order. Callers must not retain the
// slice across a Slot or Remove, and must not change a Key.
func (r *Row[K, V]) Entries() []Entry[K, V] { return r.ents }

// Find returns the slot of k's entry, or -1.
func (r *Row[K, V]) Find(k K) int {
	if r.idx != nil {
		if i, ok := r.idx[k]; ok {
			return int(i)
		}
		return -1
	}
	for i := range r.ents {
		if r.ents[i].Key == k {
			return i
		}
	}
	return -1
}

// Slot returns k's value, appending a zero entry if there is none.
func (r *Row[K, V]) Slot(k K) *V {
	if i := r.Find(k); i >= 0 {
		return &r.ents[i].Val
	}
	return r.push(k)
}

// push appends a zero entry for k, which the row must not hold, and returns
// its value.
func (r *Row[K, V]) push(k K) *V {
	i := len(r.ents)
	r.ents = append(r.ents, Entry[K, V]{Key: k})
	if r.idx != nil {
		r.idx[k] = int32(i)
	} else if len(r.ents) > wideRow {
		r.buildIndex()
	}
	return &r.ents[i].Val
}

// buildIndex (re)creates idx from ents.
func (r *Row[K, V]) buildIndex() {
	r.idx = make(map[K]int32, 2*len(r.ents))
	for i := range r.ents {
		r.idx[r.ents[i].Key] = int32(i)
	}
}

// Remove deletes slot i by moving the last entry into it.
func (r *Row[K, V]) Remove(i int) {
	last := len(r.ents) - 1
	if r.idx != nil {
		delete(r.idx, r.ents[i].Key)
	}
	if i != last {
		r.ents[i] = r.ents[last]
		if r.idx != nil {
			r.idx[r.ents[i].Key] = int32(i)
		}
	}
	r.ents = r.ents[:last]
	if last <= wideRow/2 {
		r.idx = nil
	}
}
