package graph

import "fdp/internal/ref"

// UnionFind partitions references, addressed by ref.Index, into the classes
// its Union calls connect: the weakly connected components of a process
// graph neither engine has to build. The sequential World feeds it the
// edges of its processes' stored references and channels, the concurrent
// runtime those of its stored references and mailboxes. The zero value holds
// nothing; Reset sizes it and reuses its array.
type UnionFind struct{ parent []int32 }

// Reset makes every index below n a class of its own.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
	}
	u.parent = u.parent[:n]
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
}

// root returns the representative of i's class, halving the path to it.
func (u *UnionFind) root(i int32) int32 {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

// Union joins a's and b's classes and reports whether they were two, so a
// caller counting classes down can stop at one. Both must index below
// Reset's n.
func (u *UnionFind) Union(a, b ref.Ref) bool {
	x, y := u.root(int32(ref.Index(a))), u.root(int32(ref.Index(b)))
	if x == y {
		return false
	}
	u.parent[max(x, y)] = min(x, y)
	return true
}

// Same reports whether a and b are in one class.
func (u *UnionFind) Same(a, b ref.Ref) bool {
	return u.root(int32(ref.Index(a))) == u.root(int32(ref.Index(b)))
}

// Partition returns the classes of nodes, which must be distinct and in
// reference order: members in that order, classes ordered by their smallest
// member — exactly what WeaklyConnectedComponents returns for a graph with
// these nodes and the edges Union was given. Like there, every class is cut
// from one backing array and capped; no nodes yields nil.
func (u *UnionFind) Partition(nodes []ref.Ref) [][]ref.Ref {
	// class[root] is 1 + the index of root's class, 0 until its first member.
	class := make([]int32, len(u.parent))
	var sizes []int
	for _, n := range nodes {
		r := u.root(int32(ref.Index(n)))
		if class[r] == 0 {
			sizes = append(sizes, 0)
			class[r] = int32(len(sizes))
		}
		sizes[class[r]-1]++
	}
	if len(sizes) == 0 {
		return nil
	}
	backing := make([]ref.Ref, len(nodes))
	comps := make([][]ref.Ref, len(sizes))
	off := 0
	for i, s := range sizes {
		comps[i] = backing[off : off : off+s]
		off += s
	}
	for _, n := range nodes {
		c := class[u.root(int32(ref.Index(n)))] - 1
		comps[c] = append(comps[c], n)
	}
	return comps
}
