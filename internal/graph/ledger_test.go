package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fdp/internal/ref"
)

// The model the ledger is checked against shares no code with it: the set of
// leavers, the set of exited processes, each process's synced reference list
// and a flat map from unordered pair to edge count. It counts every pair,
// leaver or not; the pair rule is applied only when a row is read.

type ledgerModel struct {
	leaves, gone map[ref.Ref]bool
	pairs        map[[2]ref.Ref]int
	synced       map[ref.Ref][]ref.Ref
}

func pairKey(a, b ref.Ref) [2]ref.Ref {
	if ref.Less(b, a) {
		a, b = b, a
	}
	return [2]ref.Ref{a, b}
}

// row is what u's ledger row must hold: nothing unless u leaves, else every
// neighbour u shares a counted pair with.
func (m *ledgerModel) row(u ref.Ref, universe []ref.Ref) map[ref.Ref]int32 {
	out := map[ref.Ref]int32{}
	if !m.leaves[u] {
		return out
	}
	for _, v := range universe {
		if c := m.pairs[pairKey(u, v)]; c > 0 && v != u {
			out[v] = int32(c)
		}
	}
	return out
}

// counts reports whether an edge between a and b is one the engines count:
// two distinct, live processes.
func (m *ledgerModel) counts(a, b ref.Ref) bool {
	return a != b && !m.gone[a] && !m.gone[b]
}

// count applies d to the pair (a, b) and reports whether a's and b's rows
// changed length.
func (m *ledgerModel) count(a, b ref.Ref, d int) (aMoved, bMoved bool) {
	k := pairKey(a, b)
	c := m.pairs[k]
	if c+d < 0 {
		return false, false
	}
	m.pairs[k] = c + d
	moved := (c == 0) != (c+d == 0)
	return moved && m.leaves[a], moved && m.leaves[b]
}

func (m *ledgerModel) exit(u ref.Ref) {
	m.gone[u] = true
	for k := range m.pairs {
		if k[0] == u || k[1] == u {
			delete(m.pairs, k)
		}
	}
	delete(m.synced, u)
}

func checkLedger(t testing.TB, l *Ledger, m *ledgerModel, universe []ref.Ref) {
	t.Helper()
	leavers := 0
	for u, leaves := range m.leaves {
		if leaves && !m.gone[u] {
			leavers++
		}
	}
	if got := l.Leavers(); got != leavers {
		t.Fatalf("Leavers() = %d, model %d", got, leavers)
	}
	for _, u := range universe {
		want := m.row(u, universe)
		if got := l.Degree(u); got != len(want) {
			t.Fatalf("Degree(%v) = %d, model %d (leaves %v, gone %v)", u, got, len(want), m.leaves[u], m.gone[u])
		}
		for _, p := range l.Pairs(u) {
			if want[p.Key] != p.Val {
				t.Fatalf("row of %v counts %d edges with %v, model %d", u, p.Val, p.Key, want[p.Key])
			}
		}
	}
}

// Ledger operations of a script, three bytes each: opcode, a, b (reduced
// modulo the universe).
const (
	lopAdd = iota
	lopRemove
	lopResync // a's stored references become a short list derived from b
	lopExit   // a leaver's Exit in one call, as the sequential engine does
	lopSplit  // a leaver's Retire, then Forget per pair, as the runtime does
	lopCopy   // the script goes on on a CopyOf the ledger, sized a+1 processes past the universe
	numLedgerOps
)

// runLedgerScript applies the script to a ledger and the model side by side
// and compares every row after every operation. Every third process leaves.
// Edges are counted as both engines count them: only between two live,
// distinct processes, except that a remove may name a gone endpoint and must
// then change nothing.
func runLedgerScript(t testing.TB, script []byte) {
	t.Helper()
	universe := ref.NewSpace().NewN(wideRow + 8)
	l := new(Ledger)
	l.Reset(len(universe))
	m := &ledgerModel{leaves: map[ref.Ref]bool{}, gone: map[ref.Ref]bool{},
		pairs: map[[2]ref.Ref]int{}, synced: map[ref.Ref][]ref.Ref{}}
	for i, u := range universe {
		if i%3 == 0 {
			l.Leave(u)
			m.leaves[u] = true
		}
	}
	var diff RefDiff
	synced := make([][]ref.Ref, len(universe))
	for ; len(script) >= 3; script = script[3:] {
		ai, bi := int(script[1])%len(universe), int(script[2])%len(universe)
		a, b := universe[ai], universe[bi]
		switch script[0] % numLedgerOps {
		case lopAdd:
			if m.counts(a, b) {
				l.Count(a, b, 1)
				m.count(a, b, 1)
			}
		case lopRemove:
			if a == b {
				break
			}
			ga, gb := l.Count(a, b, -1)
			var wa, wb bool
			if m.counts(a, b) {
				wa, wb = m.count(a, b, -1)
			}
			if ga != wa || gb != wb {
				t.Fatalf("Count(%v, %v, -1) moved rows %v, %v; model %v, %v", a, b, ga, gb, wa, wb)
			}
		case lopResync:
			if m.gone[a] {
				break
			}
			var cur []ref.Ref // b's multiples below the universe's end, twice where 3 divides them
			for k := bi; k < len(universe) && len(cur) < 5; k += bi + 1 {
				cur = append(cur, universe[k])
				if k%3 == 0 {
					cur = append(cur, universe[k])
				}
			}
			slices.Reverse(cur) // not in reference order: Resync must not care
			// Both lists are handouts: Resync writes neither, and takes cur
			// itself, not a copy of it, as the next base.
			base := synced[ai]
			was, handed := slices.Clone(base), slices.Clone(cur)
			added, gone := diff.Resync(&synced[ai], cur)
			if !slices.Equal(base, was) || !slices.Equal(cur, handed) {
				t.Fatalf("Resync %v → %v wrote its arguments: base %v, cur %v", was, handed, base, cur)
			}
			if len(synced[ai]) != len(cur) || &synced[ai][0] != &cur[0] {
				t.Fatalf("Resync %v → %v left the base %v, not cur's array", was, handed, synced[ai])
			}
			// The delta is the multiset difference, each list in reference
			// order: the old list plus added equals the new list plus gone.
			if !slices.IsSortedFunc(added, refCmp) || !slices.IsSortedFunc(gone, refCmp) ||
				!slices.Equal(sortedRefs(was, added), sortedRefs(cur, gone)) {
				t.Fatalf("Resync %v → %v: added %v, gone %v", was, cur, added, gone)
			}
			for _, d := range []struct {
				refs []ref.Ref
				by   int32
			}{{added, 1}, {gone, -1}} {
				for _, r := range d.refs {
					if m.counts(a, r) {
						l.Count(a, r, d.by)
						m.count(a, r, int(d.by))
					}
				}
			}
		case lopExit:
			if m.leaves[a] && !m.gone[a] {
				l.Exit(a)
				m.exit(a)
				synced[ai] = nil
			}
		case lopSplit:
			if !m.leaves[a] || m.gone[a] {
				break
			}
			for _, p := range l.Retire(a) {
				if got := l.Forget(p.Key, a); got != m.leaves[p.Key] {
					t.Fatalf("Forget(%v, %v) = %v, but %v leaves: %v", p.Key, a, got, p.Key, m.leaves[p.Key])
				}
			}
			m.exit(a)
			synced[ai] = nil
		case lopCopy:
			c := new(Ledger)
			c.CopyOf(l, len(universe)+ai+1)
			for _, u := range universe {
				if !slices.Equal(c.Pairs(u), l.Pairs(u)) {
					t.Fatalf("copied row of %v is %v, the original %v", u, c.Pairs(u), l.Pairs(u))
				}
				if r := l.row(u); r != nil && (r.idx == nil) != (c.row(u).idx == nil) {
					t.Fatalf("row of %v: original indexed %v, copy %v", u, r.idx != nil, c.row(u).idx != nil)
				}
			}
			l = c
		}
		checkLedger(t, l, m, universe)
	}
}

func refCmp(a, b ref.Ref) int {
	switch {
	case ref.Less(a, b):
		return -1
	case ref.Less(b, a):
		return 1
	}
	return 0
}

// sortedRefs returns the sorted union of the lists, duplicates kept.
func sortedRefs(lists ...[]ref.Ref) []ref.Ref {
	out := slices.Concat(lists...)
	ref.Sort(out)
	return out
}

// hubLedgerScript drives leaver 0's row across the wide-row threshold and
// back, copies the ledger and grows the copied row past its room and the
// threshold, copies the indexed row, then retires it.
func hubLedgerScript() []byte {
	n := byte(wideRow + 8)
	var s []byte
	for b := byte(1); b < n; b++ {
		s = append(s, lopAdd, 0, b, lopAdd, b, 0)
	}
	for b := n - 1; b >= 4; b-- {
		s = append(s, lopRemove, 0, b, lopRemove, b, 0)
	}
	// A copy of the hub row, then its regrowth past the copy's room.
	s = append(s, lopCopy, 0, 0)
	for b := byte(4); b < n; b++ {
		s = append(s, lopAdd, 0, b)
	}
	return append(s, lopCopy, 1, 0, lopResync, 0, 2, lopResync, 0, 0, lopSplit, 0, 0, lopRemove, 0, 1)
}

// TestLedgerMatchesModel runs the hub script and random scripts against the
// model: multi-edges, removes of absent pairs and of pairs with a gone
// endpoint, end-of-action diffs with duplicates, both ways of exiting, and
// copies worked on further.
func TestLedgerMatchesModel(t *testing.T) {
	runLedgerScript(t, hubLedgerScript())
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 60; trial++ {
		script := make([]byte, 3*200)
		rng.Read(script)
		for i := 0; i < len(script); i += 3 {
			// Bias toward adds and exits rarer, over a small neighbourhood on
			// half the trials so multi-edges and real removes are common.
			switch rng.Intn(6) {
			case 0, 1:
				script[i] = lopAdd
			case 2:
				script[i] = lopRemove
			}
			if trial%2 == 0 {
				script[i+1] %= 9
				script[i+2] %= 9
			}
		}
		runLedgerScript(t, script)
	}
}

// FuzzLedgerOps feeds arbitrary scripts to the same checker.
func FuzzLedgerOps(f *testing.F) {
	f.Add(hubLedgerScript())
	f.Add([]byte{lopAdd, 0, 1, lopAdd, 1, 0, lopResync, 3, 1, lopExit, 3, 0, lopRemove, 0, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*200 {
			script = script[:3*200]
		}
		runLedgerScript(t, script)
	})
}

// TestLedgerRetiresConcurrently retires rows from several goroutines at once,
// as the runtime's workers do when each commits the exit of a leaver it owns:
// every row behind its own lock, the neighbours' Forget one lock at a time.
// Adjacent leavers retire side by side, so a row may be retired while a
// neighbour still counts it. Run under -race, it is what keeps the leaver
// count safe; at the end no row is left and no pair is counted.
func TestLedgerRetiresConcurrently(t *testing.T) {
	const n, workers = 256, 4
	nodes := ref.NewSpace().NewN(n)
	var l Ledger
	l.Reset(n)
	for _, u := range nodes {
		l.Leave(u)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*n; i++ {
		if a, b := nodes[rng.Intn(n)], nodes[rng.Intn(n)]; a != b {
			l.Count(a, b, 1)
		}
	}
	locks := make([]sync.Mutex, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				u := nodes[i]
				locks[i].Lock()
				pairs := l.Retire(u)
				locks[i].Unlock()
				for _, p := range pairs {
					q := ref.Index(p.Key)
					locks[q].Lock()
					l.Forget(p.Key, u)
					locks[q].Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := l.Leavers(); got != 0 {
		t.Fatalf("Leavers() = %d after every row was retired", got)
	}
	for _, u := range nodes {
		if d := l.Degree(u); d != 0 {
			t.Fatalf("retired %v still counts %d neighbours", u, d)
		}
	}
}
