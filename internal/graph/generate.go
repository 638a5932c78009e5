package graph

import (
	"math/bits"
	"math/rand"

	"fdp/internal/ref"
)

// Generators for the initial topologies used across experiments. Every
// generator takes the node list explicitly so that references remain under
// the caller's Space; all produced graphs are weakly connected (a
// precondition of the paper's initial states) and use explicit edges. Each
// knows a bound on every node's degree before it adds an edge, and builds on
// sized.

// sized returns a graph over nodes with no edges whose rows are carved from
// one backing array: nodes[i] has room for room(i) entries, capped so that a
// row outgrowing its room is copied out on its own, as restrict's rows are.
func sized(nodes []ref.Ref, room func(i int) int) *Graph {
	g := &Graph{present: make([]bool, 0, len(nodes)), rows: make([]row, 0, len(nodes))}
	total := 0
	for i, n := range nodes {
		g.AddNode(n)
		total += room(i)
	}
	backing := make([]entry, total)
	for i, n := range nodes {
		k := room(i)
		if j := ref.Index(n); j >= 0 {
			g.rows[j].ents = backing[:0:k]
		}
		backing = backing[k:]
	}
	return g
}

// uniform is the room of a generator whose degrees are all at most d.
func uniform(d int) func(int) int { return func(int) int { return d } }

// Line builds the directed sorted list p0 -> p1 -> ... -> pn-1 with edges in
// both directions, the target topology of the linearization protocol.
func Line(nodes []ref.Ref) *Graph { return line(sized(nodes, uniform(2)), nodes) }

// line adds Line's edges to g.
func line(g *Graph, nodes []ref.Ref) *Graph {
	for i := 0; i+1 < len(nodes); i++ {
		g.AddEdge(nodes[i], nodes[i+1], Explicit)
		g.AddEdge(nodes[i+1], nodes[i], Explicit)
	}
	return g
}

// DirectedLine builds the one-directional list p0 -> p1 -> ... -> pn-1.
func DirectedLine(nodes []ref.Ref) *Graph {
	g := sized(nodes, uniform(2))
	for i := 0; i+1 < len(nodes); i++ {
		g.AddEdge(nodes[i], nodes[i+1], Explicit)
	}
	return g
}

// Ring builds the bidirected cycle p0 - p1 - ... - pn-1 - p0.
func Ring(nodes []ref.Ref) *Graph { return ring(sized(nodes, uniform(2)), nodes) }

// ring adds Ring's edges to g.
func ring(g *Graph, nodes []ref.Ref) *Graph {
	line(g, nodes)
	if len(nodes) > 2 {
		g.AddEdge(nodes[len(nodes)-1], nodes[0], Explicit)
		g.AddEdge(nodes[0], nodes[len(nodes)-1], Explicit)
	}
	return g
}

// Clique builds the complete digraph: every ordered pair (u,v), u != v.
func Clique(nodes []ref.Ref) *Graph {
	g := sized(nodes, uniform(len(nodes)-1))
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				g.AddEdge(a, b, Explicit)
			}
		}
	}
	return g
}

// Star builds the star with nodes[0] as hub, edges in both directions.
func Star(nodes []ref.Ref) *Graph {
	g := sized(nodes, func(i int) int {
		if i == 0 {
			return len(nodes) - 1
		}
		return 1
	})
	for _, leaf := range nodes[1:] {
		g.AddEdge(nodes[0], leaf, Explicit)
		g.AddEdge(leaf, nodes[0], Explicit)
	}
	return g
}

// BinaryTree builds the complete binary tree in heap order with edges in
// both directions.
func BinaryTree(nodes []ref.Ref) *Graph {
	g := sized(nodes, uniform(3))
	for i := 1; i < len(nodes); i++ {
		parent := (i - 1) / 2
		g.AddEdge(nodes[parent], nodes[i], Explicit)
		g.AddEdge(nodes[i], nodes[parent], Explicit)
	}
	return g
}

// Hypercube builds the d-dimensional hypercube on 2^d nodes (len(nodes)
// must be a power of two), with edges in both directions.
func Hypercube(nodes []ref.Ref) *Graph {
	n := len(nodes)
	g := sized(nodes, uniform(bits.Len(uint(n-1)))) // one neighbour per bit below n
	for i := 0; i < n; i++ {
		for bit := 1; bit < n; bit <<= 1 {
			j := i ^ bit
			if j > i && j < n {
				g.AddEdge(nodes[i], nodes[j], Explicit)
				g.AddEdge(nodes[j], nodes[i], Explicit)
			}
		}
	}
	return g
}

// RandomConnected builds a random weakly connected digraph: a random
// spanning tree (guaranteeing weak connectivity) plus extra random directed
// edges so that the expected number of additional edges is extra. The edge
// directions of the tree edges are random, matching the paper's arbitrary
// weakly connected initial states.
func RandomConnected(nodes []ref.Ref, extra int, rng *rand.Rand) *Graph {
	n := len(nodes)
	if n < 2 {
		return sized(nodes, uniform(0))
	}
	// Every draw is made before the first edge is added, so that each row is
	// sized to the pairs that may land in it: the tree's n-1 edges, then the
	// extra candidates, a pair of node positions each, source first.
	perm := rng.Perm(n)
	pairs := make([][2]int32, 0, n-1+extra)
	for i := 1; i < n; i++ {
		a, b := perm[i], perm[rng.Intn(i)]
		if rng.Intn(2) != 0 {
			a, b = b, a
		}
		pairs = append(pairs, [2]int32{int32(a), int32(b)})
	}
	for k := 0; k < extra; k++ {
		pairs = append(pairs, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	room := make([]int32, n)
	for _, p := range pairs {
		if p[0] != p[1] {
			room[p[0]]++
			room[p[1]]++
		}
	}
	g := sized(nodes, func(i int) int { return int(room[i]) })
	for k, p := range pairs {
		a, b := nodes[p[0]], nodes[p[1]]
		if k < n-1 || p[0] != p[1] && !g.HasEdge(a, b) {
			g.AddEdge(a, b, Explicit)
		}
	}
	return g
}

// RandomTree builds a random spanning tree with random edge directions.
func RandomTree(nodes []ref.Ref, rng *rand.Rand) *Graph {
	return RandomConnected(nodes, 0, rng)
}

// SkipGraph builds a deterministic skip-graph-like overlay: the nodes form a
// sorted base list (level 0), and every node additionally links to the nodes
// at distance 2, 4, 8, ... in list order — the perfect-skip-list express
// lanes that give skip graphs their O(log n) routing. All edges are
// bidirectional; the base list alone makes the graph connected at every n.
func SkipGraph(nodes []ref.Ref) *Graph {
	lanes := bits.Len(uint(len(nodes)-1)) - 1 // the distances 2, 4, ... below n
	// Node i gains two neighbours per distance dividing i.
	g := line(sized(nodes, func(i int) int { return 2 + 2*min(bits.TrailingZeros(uint(i)), lanes) }), nodes)
	for dist := 2; dist < len(nodes); dist <<= 1 {
		for i := 0; i+dist < len(nodes); i += dist {
			g.AddEdge(nodes[i], nodes[i+dist], Explicit)
			g.AddEdge(nodes[i+dist], nodes[i], Explicit)
		}
	}
	return g
}

// DeBruijn builds the generalized binary de Bruijn digraph GB(2, n): node i
// has directed edges to (2i) mod n and (2i+1) mod n (self-loops skipped).
// Generalized de Bruijn digraphs are strongly — hence weakly — connected for
// every n >= 1, with diameter at most ceil(log2 n), which is what makes them
// a standard constant-degree overlay.
func DeBruijn(nodes []ref.Ref) *Graph {
	n := len(nodes)
	// Two successors and at most two predecessors: for odd n, 2i+r ≡ j (mod
	// n) has one solution i per r; for even n, two for the one r that makes
	// j-r even.
	g := sized(nodes, uniform(4))
	for i := 0; i < n; i++ {
		for r := 0; r < 2; r++ {
			j := (2*i + r) % n
			if j != i && !g.HasEdge(nodes[i], nodes[j]) {
				g.AddEdge(nodes[i], nodes[j], Explicit)
			}
		}
	}
	return g
}

// RandomRegular builds a connected random graph with near-uniform degree d:
// a ring guarantees connectivity (and degree 2), then each extra degree
// round superimposes a random partial matching drawn from rng. Every edge is
// bidirectional. Degrees are exactly d except where a matching round cannot
// place an edge (duplicate or self pair), so the graph is "random
// d-regular-ish" in the configuration-model sense. d is clamped to n-1.
func RandomRegular(nodes []ref.Ref, d int, rng *rand.Rand) *Graph {
	n := len(nodes)
	if d >= n {
		d = n - 1
	}
	if n <= 3 || d >= n-1 {
		// Too small for a ring-plus-matchings to add anything: the clique is
		// the unique (n-1)-regular graph and the best effort below it.
		return Clique(nodes)
	}
	// The ring gives every node two neighbours, each matching round at most
	// one more.
	g := ring(sized(nodes, uniform(d)), nodes)
	for round := 2; round < d; round++ {
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			a, b := nodes[perm[i]], nodes[perm[i+1]]
			if a != b && !g.HasEdge(a, b) {
				g.AddEdge(a, b, Explicit)
				g.AddEdge(b, a, Explicit)
			}
		}
	}
	return g
}
