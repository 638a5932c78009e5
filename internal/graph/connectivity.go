package graph

import (
	"slices"

	"fdp/internal/ref"
)

// WeaklyConnected reports whether the graph is weakly connected: for any two
// nodes u, v there is a (not necessarily directed) path between them. The
// empty graph and singleton graphs are weakly connected.
func (g *Graph) WeaklyConnected() bool {
	return len(g.WeaklyConnectedComponents()) <= 1
}

// WeaklyConnectedComponents returns the partition of the nodes into weakly
// connected components, each sorted, with components ordered by their
// smallest member.
func (g *Graph) WeaklyConnectedComponents() [][]ref.Ref {
	seen := make([]bool, len(g.present))
	// All components are cut from one backing array, each capped so a
	// caller's append cannot reach the next.
	order := make([]ref.Ref, 0, g.numNodes)
	var comps [][]ref.Ref
	for i, p := range g.present {
		if !p || seen[i] {
			continue
		}
		start := len(order)
		seen[i] = true
		order = g.walk(seen, append(order, ref.ByIndex(i)), start, true)
		comp := order[start:len(order):len(order)]
		ref.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// walk extends order by everything reachable from order[from:] — along edges
// of either direction if undirected, along out-edges only otherwise —
// skipping and marking nodes in seen. The nodes of order[from:] must be
// nodes of g already marked.
func (g *Graph) walk(seen []bool, order []ref.Ref, from int, undirected bool) []ref.Ref {
	for i := from; i < len(order); i++ {
		for _, e := range g.rows[ref.Index(order[i])].ents {
			j := ref.Index(e.Key)
			if !seen[j] && (undirected || e.Val.out() > 0) {
				seen[j] = true
				order = append(order, e.Key)
			}
		}
	}
	return order
}

// reach returns the nodes among starts plus everything walk finds from them.
func (g *Graph) reach(undirected bool, starts ...ref.Ref) []ref.Ref {
	seen := make([]bool, len(g.present))
	var order []ref.Ref
	for _, s := range starts {
		if i := g.index(s); i >= 0 && g.present[i] && !seen[i] {
			seen[i] = true
			order = append(order, s)
		}
	}
	return g.walk(seen, order, 0, undirected)
}

// UndirectedReach returns the set of nodes reachable from start ignoring
// edge directions, including start, or nil if start is not a node. One
// traversal answers same-component queries for any number of peers —
// callers checking a whole member list against one anchor must use this
// instead of per-pair SameWeakComponent calls, which repeat the BFS per
// query and turn a linear check quadratic.
func (g *Graph) UndirectedReach(start ref.Ref) ref.Set {
	if !g.HasNode(start) {
		return nil
	}
	return ref.NewSet(g.reach(true, start)...)
}

// SameWeakComponent reports whether u and v lie in the same weakly connected
// component. A node is in the same component as itself.
func (g *Graph) SameWeakComponent(u, v ref.Ref) bool {
	if !g.HasNode(u) || !g.HasNode(v) {
		return false
	}
	return u == v || slices.Contains(g.reach(true, u), v)
}

// Reachable reports whether there is a directed path from u to v (v == u
// counts as reachable when u is a node).
func (g *Graph) Reachable(u, v ref.Ref) bool {
	if !g.HasNode(u) || !g.HasNode(v) {
		return false
	}
	return slices.Contains(g.reach(false, u), v)
}

// ForwardReach returns all nodes reachable from start by directed paths,
// including start.
func (g *Graph) ForwardReach(start ref.Ref) ref.Set {
	set := ref.NewSet(g.reach(false, start)...)
	set.Add(start)
	return set
}

// ForwardReachAll returns all nodes reachable from any node of starts by
// directed paths, including the starts themselves. Used by the hibernation
// test: p is hibernating iff p is asleep with an empty channel and no awake
// or message-holding process has a directed path to p.
func (g *Graph) ForwardReachAll(starts []ref.Ref) ref.Set {
	return ref.NewSet(g.reach(false, starts...)...)
}

// StronglyConnected reports whether the graph is strongly connected. Graphs
// with fewer than two nodes are strongly connected.
func (g *Graph) StronglyConnected() bool {
	return len(g.StronglyConnectedComponents()) <= 1
}

// StronglyConnectedComponents returns the strongly connected components
// using Tarjan's algorithm (iterative). Components are sorted internally and
// ordered by smallest member.
func (g *Graph) StronglyConnectedComponents() [][]ref.Ref {
	// index and low are 1-based discovery numbers; 0 means unvisited.
	index := make([]int, len(g.present))
	low := make([]int, len(g.present))
	onStack := make([]bool, len(g.present))
	var stack []ref.Ref
	var comps [][]ref.Ref
	next := 1

	type frame struct {
		node  ref.Ref
		succs []ref.Ref
		i     int
	}

	for _, root := range g.Nodes() {
		if index[ref.Index(root)] != 0 {
			continue
		}
		var call []frame
		push := func(n ref.Ref) {
			index[ref.Index(n)] = next
			low[ref.Index(n)] = next
			next++
			stack = append(stack, n)
			onStack[ref.Index(n)] = true
			call = append(call, frame{node: n, succs: g.Succ(n)})
		}
		push(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.i < len(f.succs) {
				w := ref.Index(f.succs[f.i])
				f.i++
				if index[w] == 0 {
					push(ref.ByIndex(w))
				} else if onStack[w] {
					if n := ref.Index(f.node); index[w] < low[n] {
						low[n] = index[w]
					}
				}
				continue
			}
			// All successors processed: maybe emit a component.
			n := f.node
			if low[ref.Index(n)] == index[ref.Index(n)] {
				var comp []ref.Ref
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[ref.Index(w)] = false
					comp = append(comp, w)
					if w == n {
						break
					}
				}
				ref.Sort(comp)
				comps = append(comps, comp)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := ref.Index(call[len(call)-1].node)
				if low[ref.Index(n)] < low[parent] {
					low[parent] = low[ref.Index(n)]
				}
			}
		}
	}
	// Order components by smallest member for determinism.
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && ref.Less(comps[j][0], comps[j-1][0]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}

// ShortestPath returns a shortest directed path from u to v (inclusive), or
// nil if v is unreachable from u. BFS with deterministic neighbor order.
func (g *Graph) ShortestPath(u, v ref.Ref) []ref.Ref {
	if !g.HasNode(u) || !g.HasNode(v) {
		return nil
	}
	if u == v {
		return []ref.Ref{u}
	}
	prev := make([]ref.Ref, len(g.present)) // ⊥ = not reached
	prev[ref.Index(u)] = u
	queue := []ref.Ref{u}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, b := range g.Succ(n) {
			if !prev[ref.Index(b)].IsNil() {
				continue
			}
			prev[ref.Index(b)] = n
			if b == v {
				var path []ref.Ref
				for cur := v; ; cur = prev[ref.Index(cur)] {
					path = append(path, cur)
					if cur == u {
						break
					}
				}
				slices.Reverse(path)
				return path
			}
			queue = append(queue, b)
		}
	}
	return nil
}

// Diameter returns the longest shortest undirected path length between any
// node pair, or -1 if the graph is not weakly connected or empty.
func (g *Graph) Diameter() int {
	if g.numNodes == 0 {
		return -1
	}
	diam := 0
	dist := make([]int, len(g.present))
	seen := make([]bool, len(g.present))
	order := make([]ref.Ref, 0, g.numNodes)
	for _, s := range g.Nodes() {
		// BFS from s: order doubles as the queue, so dist is final when a
		// node is dequeued.
		clear(seen)
		seen[ref.Index(s)] = true
		dist[ref.Index(s)] = 0
		order = append(order[:0], s)
		for i := 0; i < len(order); i++ {
			n := ref.Index(order[i])
			for _, e := range g.rows[n].ents {
				if j := ref.Index(e.Key); !seen[j] {
					seen[j] = true
					dist[j] = dist[n] + 1
					diam = max(diam, dist[j])
					order = append(order, e.Key)
				}
			}
		}
		if len(order) != g.numNodes {
			return -1
		}
	}
	return diam
}

// ArticulationPoints returns nodes whose removal (with incident edges)
// increases the number of weakly connected components of the undirected
// view. These are the dangerous processes for the departure problem: a
// leaving articulation point must not exit early.
func (g *Graph) ArticulationPoints() []ref.Ref {
	base := len(g.WeaklyConnectedComponents())
	var points []ref.Ref
	for _, n := range g.Nodes() {
		h := g.Clone()
		h.RemoveNode(n)
		if h.NumNodes() > 0 && len(h.WeaklyConnectedComponents()) > base {
			points = append(points, n)
		}
	}
	return points
}

// BidirectedExtension returns the graph G” of the Theorem 1 proof: for each
// edge (u,v) of g, both (u,v) and (v,u) are present (once, explicit).
func (g *Graph) BidirectedExtension() *Graph {
	h := New()
	for i, p := range g.present {
		if !p {
			continue
		}
		a := ref.ByIndex(i)
		h.AddNode(a)
		for _, e := range g.rows[i].ents {
			if e.Val.out() == 0 {
				continue
			}
			if !h.HasEdge(a, e.Key) {
				h.AddEdge(a, e.Key, Explicit)
			}
			if !h.HasEdge(e.Key, a) {
				h.AddEdge(e.Key, a, Explicit)
			}
		}
	}
	return h
}
