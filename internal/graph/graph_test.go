package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fdp/internal/ref"
)

func mkNodes(n int) ([]ref.Ref, *ref.Space) {
	s := ref.NewSpace()
	return s.NewN(n), s
}

func TestAddEdgeRegistersNodes(t *testing.T) {
	nodes, _ := mkNodes(2)
	g := New()
	g.AddEdge(nodes[0], nodes[1], Explicit)
	if !g.HasNode(nodes[0]) || !g.HasNode(nodes[1]) {
		t.Fatal("endpoints not registered")
	}
	if !g.HasEdge(nodes[0], nodes[1]) {
		t.Fatal("edge missing")
	}
	if g.HasEdge(nodes[1], nodes[0]) {
		t.Fatal("reverse edge should not exist")
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	nodes, _ := mkNodes(1)
	g := New()
	g.AddEdge(nodes[0], nodes[0], Explicit)
	if g.NumEdges() != 0 {
		t.Fatal("self-loop must be ignored")
	}
}

func TestNilIgnored(t *testing.T) {
	nodes, _ := mkNodes(1)
	g := New()
	g.AddNode(nodes[0])
	g.AddEdge(ref.Nil, nodes[0], Explicit)
	g.AddEdge(nodes[0], ref.Nil, Explicit)
	g.AddNode(ref.Nil)
	if g.NumEdges() != 0 || g.NumNodes() != 1 {
		t.Fatalf("⊥ edges must be ignored; edges=%d nodes=%d", g.NumEdges(), g.NumNodes())
	}
}

func TestMultiplicityAndKinds(t *testing.T) {
	nodes, _ := mkNodes(2)
	a, b := nodes[0], nodes[1]
	g := New()
	g.AddEdge(a, b, Explicit)
	g.AddEdge(a, b, Implicit)
	g.AddEdge(a, b, Implicit)
	if g.EdgeCount(a, b) != 3 {
		t.Fatalf("EdgeCount = %d, want 3", g.EdgeCount(a, b))
	}
	if !g.HasEdgeKind(a, b, Explicit) || !g.HasEdgeKind(a, b, Implicit) {
		t.Fatal("kinds missing")
	}
	if !g.RemoveEdge(a, b, Explicit) {
		t.Fatal("explicit removal failed")
	}
	if g.HasEdgeKind(a, b, Explicit) {
		t.Fatal("explicit copy should be gone")
	}
	if g.EdgeCount(a, b) != 2 {
		t.Fatalf("EdgeCount after removal = %d, want 2", g.EdgeCount(a, b))
	}
	if g.RemoveEdge(a, b, Explicit) {
		t.Fatal("removing absent explicit edge must fail")
	}
}

func TestRemoveEdgeCleansAdjacency(t *testing.T) {
	nodes, _ := mkNodes(2)
	a, b := nodes[0], nodes[1]
	g := New()
	g.AddEdge(a, b, Implicit)
	g.RemoveEdge(a, b, Implicit)
	if g.HasEdge(a, b) {
		t.Fatal("edge should be gone")
	}
	if len(g.Pred(b)) != 0 {
		t.Fatal("reverse adjacency not cleaned")
	}
	if len(g.Succ(a)) != 0 {
		t.Fatal("forward adjacency not cleaned")
	}
}

func TestRemoveNode(t *testing.T) {
	nodes, _ := mkNodes(3)
	g := Line(nodes)
	g.RemoveNode(nodes[1])
	if g.HasNode(nodes[1]) {
		t.Fatal("node still present")
	}
	if g.HasEdge(nodes[0], nodes[1]) || g.HasEdge(nodes[1], nodes[2]) ||
		g.HasEdge(nodes[1], nodes[0]) || g.HasEdge(nodes[2], nodes[1]) {
		t.Fatal("incident edges not removed")
	}
	if g.WeaklyConnected() {
		t.Fatal("removing middle node must disconnect a 3-line")
	}
}

func TestCloneIndependence(t *testing.T) {
	nodes, _ := mkNodes(4)
	g := Ring(nodes)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.RemoveNode(nodes[0])
	if g.Equal(c) {
		t.Fatal("mutation leaked into original")
	}
	if !g.HasNode(nodes[0]) {
		t.Fatal("original mutated")
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	nodes, _ := mkNodes(4)
	g := Clique(nodes)
	e1 := g.Edges()
	e2 := g.Edges()
	if len(e1) != 12 {
		t.Fatalf("clique(4) edges = %d, want 12", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Edges() order nondeterministic")
		}
	}
}

func TestUndirectedNeighborsAndDegree(t *testing.T) {
	nodes, _ := mkNodes(3)
	a, b, c := nodes[0], nodes[1], nodes[2]
	g := New()
	g.AddEdge(a, b, Explicit)
	g.AddEdge(c, a, Implicit)
	got := g.UndirectedNeighbors(a)
	if len(got) != 2 {
		t.Fatalf("neighbors of a = %v, want 2 entries", got)
	}
	if g.Degree(a) != 2 || g.Degree(b) != 1 || g.Degree(c) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestInducedSubgraph(t *testing.T) {
	nodes, _ := mkNodes(4)
	g := Clique(nodes)
	keep := ref.NewSet(nodes[0], nodes[1])
	s := g.InducedSubgraph(keep)
	if s.NumNodes() != 2 || s.NumEdges() != 2 {
		t.Fatalf("induced subgraph nodes=%d edges=%d", s.NumNodes(), s.NumEdges())
	}
	if s.HasNode(nodes[2]) {
		t.Fatal("excluded node present")
	}
}

func TestEqualAndSameSimpleDigraph(t *testing.T) {
	nodes, _ := mkNodes(2)
	a, b := nodes[0], nodes[1]
	g, h := New(), New()
	g.AddEdge(a, b, Explicit)
	h.AddEdge(a, b, Implicit)
	if g.Equal(h) {
		t.Fatal("kind-sensitive Equal must distinguish explicit/implicit")
	}
	if !g.SameSimpleDigraph(h) {
		t.Fatal("simple digraph view must ignore kinds")
	}
	h.AddEdge(a, b, Implicit)
	if !g.SameSimpleDigraph(h) {
		t.Fatal("simple digraph view must ignore multiplicity")
	}
	h.AddEdge(b, a, Explicit)
	if g.SameSimpleDigraph(h) {
		t.Fatal("extra edge must be detected")
	}
}

func TestDOTOutput(t *testing.T) {
	nodes, _ := mkNodes(2)
	g := New()
	g.AddEdge(nodes[0], nodes[1], Implicit)
	dot := g.DOT("test")
	if !strings.Contains(dot, "style=dashed") {
		t.Fatal("implicit edge must be dashed")
	}
	if !strings.Contains(dot, "digraph") {
		t.Fatal("not a digraph")
	}
}

func TestGeneratorsShapes(t *testing.T) {
	nodes, _ := mkNodes(8)
	cases := []struct {
		name  string
		g     *Graph
		edges int
	}{
		{"line", Line(nodes), 14},
		{"directedline", DirectedLine(nodes), 7},
		{"ring", Ring(nodes), 16},
		{"clique", Clique(nodes), 56},
		{"star", Star(nodes), 14},
		{"tree", BinaryTree(nodes), 14},
		{"hypercube", Hypercube(nodes), 24},
	}
	for _, c := range cases {
		if c.g.NumNodes() != 8 {
			t.Errorf("%s: nodes = %d", c.name, c.g.NumNodes())
		}
		if c.g.NumEdges() != c.edges {
			t.Errorf("%s: edges = %d, want %d", c.name, c.g.NumEdges(), c.edges)
		}
		if !c.g.WeaklyConnected() {
			t.Errorf("%s: not weakly connected", c.name)
		}
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		nodes, _ := mkNodes(n)
		g := RandomConnected(nodes, rng.Intn(3*n), rng)
		if !g.WeaklyConnected() {
			t.Fatalf("trial %d: random graph with %d nodes not weakly connected", trial, n)
		}
		if g.NumNodes() != n {
			t.Fatalf("trial %d: node count %d want %d", trial, g.NumNodes(), n)
		}
	}
}

func TestRandomTreeEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes, _ := mkNodes(20)
	g := RandomTree(nodes, rng)
	if g.NumEdges() != 19 {
		t.Fatalf("tree edges = %d, want 19", g.NumEdges())
	}
	if !g.WeaklyConnected() {
		t.Fatal("tree not weakly connected")
	}
}

func TestDegreeSequenceHelpers(t *testing.T) {
	nodes, _ := mkNodes(4)
	g := Star(nodes)
	seq := g.degreeSequence()
	want := []int{1, 1, 1, 3}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("degree sequence %v, want %v", seq, want)
		}
	}
}

// TestDegreeCounterMatchesNeighbors drives the O(1) degree counter through
// random add/remove/remove-node sequences and checks it against the
// reference definition (the number of distinct undirected neighbors) for
// every node after every mutation.
func TestDegreeCounterMatchesNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		nodes, _ := mkNodes(6)
		g := New()
		for _, n := range nodes {
			g.AddNode(n)
		}
		for step := 0; step < 200; step++ {
			a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			kind := Explicit
			if rng.Intn(2) == 0 {
				kind = Implicit
			}
			switch rng.Intn(5) {
			case 0, 1, 2:
				g.AddEdge(a, b, kind)
			case 3:
				g.RemoveEdge(a, b, kind)
			case 4:
				if rng.Intn(4) == 0 { // node removal is rarer, like exits
					g.RemoveNode(a)
					g.AddNode(a) // keep the node set stable for the check
				} else {
					g.RemoveEdge(a, b, kind)
				}
			}
			for _, n := range nodes {
				if got, want := g.Degree(n), len(g.UndirectedNeighbors(n)); got != want {
					t.Fatalf("trial %d step %d: Degree(%v) = %d, want %d (graph %v)",
						trial, step, n, got, want, g)
				}
			}
		}
	}
}

// TestSubgraphDegreeAndPredQueries: a node's Degree and Pred in an induced
// subgraph are its neighbours and predecessors in the whole graph that lie in
// the kept set — the relevant degree and the relevant in-edges the oracles
// read off sim.World.RelevantPG.
func TestSubgraphDegreeAndPredQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		nodes, _ := mkNodes(7)
		g := New()
		for _, n := range nodes {
			g.AddNode(n)
		}
		for e := 0; e < 2+rng.Intn(20); e++ {
			kind := Explicit
			if rng.Intn(2) == 0 {
				kind = Implicit
			}
			g.AddEdge(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], kind)
		}
		keep := ref.NewSet()
		for _, n := range nodes {
			if rng.Intn(3) != 0 {
				keep.Add(n)
			}
		}
		sub := g.InducedSubgraph(keep)
		for _, n := range nodes {
			if !keep.Has(n) {
				continue
			}
			if got, want := sub.Degree(n), len(kept(g.UndirectedNeighbors(n), keep)); got != want {
				t.Fatalf("trial %d: subgraph Degree(%v) = %d, want %d", trial, n, got, want)
			}
			if got, want := sub.Pred(n), kept(g.Pred(n), keep); !slices.Equal(got, want) {
				t.Fatalf("trial %d: subgraph Pred(%v) = %v, want %v", trial, n, got, want)
			}
		}
	}
}

// kept returns the members of refs that lie in keep, in order.
func kept(refs []ref.Ref, keep ref.Set) []ref.Ref {
	var out []ref.Ref
	for _, r := range refs {
		if keep.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// TestForeignRefsAreNotNodes puts references no Space minted (ref.FromWire
// yields negative and huge identities) and one merely past the vectors
// through every query and removal. None may panic, none may grow storage,
// all must answer "not a node".
func TestForeignRefsAreNotNodes(t *testing.T) {
	nodes, _ := mkNodes(3)
	a := nodes[0]
	for _, id := range []uint32{0, 1 << 31, ^uint32(0), 1 << 30, 4} {
		r := ref.FromWire(id)
		g := Line(nodes)
		want := g.Clone()
		if g.HasNode(r) || g.Degree(r) != 0 || g.HasEdge(r, a) || g.HasEdge(a, r) ||
			g.HasEdgeKind(r, a, Explicit) || g.EdgeCount(a, r) != 0 ||
			g.RemoveEdge(r, a, Explicit) || g.RemoveEdge(a, r, Implicit) {
			t.Fatalf("%v: answered as a node", r)
		}
		g.RemoveNode(r)
		if len(g.Succ(r))+len(g.Pred(r))+len(g.UndirectedNeighbors(r)) != 0 {
			t.Fatalf("%v: has neighbours", r)
		}
		if g.UndirectedReach(r) != nil || g.SameWeakComponent(r, a) || g.SameWeakComponent(r, r) ||
			g.Reachable(r, a) || g.Reachable(a, r) || g.ShortestPath(a, r) != nil {
			t.Fatalf("%v: reachable", r)
		}
		if got := g.ForwardReachAll([]ref.Ref{r, a}); got.Has(r) || got.Len() != 3 {
			t.Fatalf("%v: ForwardReachAll = %v", r, got.Sorted())
		}
		if got := g.ForwardReach(r); got.Len() > 1 {
			t.Fatalf("%v: ForwardReach = %v", r, got.Sorted())
		}
		if sub := g.InducedSubgraph(ref.NewSet(r, a)); sub.NumNodes() != 1 || !sub.HasNode(a) {
			t.Fatalf("%v: InducedSubgraph = %v", r, sub)
		}
		if len(g.present) != 3 || len(g.rows) != 3 || !g.Equal(want) {
			t.Fatalf("%v: graph changed: %d slots, %v", r, len(g.present), g)
		}
		// Only the growing calls may touch storage, and only for identities
		// a Space could have minted (they grow to whatever they are given,
		// so the huge one is not tried).
		if id == 1<<30 {
			continue
		}
		g.AddNode(r)
		g.AddEdge(a, r, Explicit)
		if minted := int32(id) > 0; g.HasNode(r) != minted || g.HasEdge(a, r) != minted {
			t.Fatalf("%v: AddNode/AddEdge: node %v edge %v, want %v", r, g.HasNode(r), g.HasEdge(a, r), minted)
		}
	}
}
