package primitives

import (
	"math"
	"math/rand"
	"testing"

	"fdp/internal/graph"
	"fdp/internal/ref"
)

func transformCase(t *testing.T, start, target *graph.Graph) TransformStats {
	t.Helper()
	g := start.Clone()
	stats, err := Transform(g, target, TransformOptions{Verify: true})
	if err != nil {
		t.Fatalf("transform failed: %v", err)
	}
	if !g.SameSimpleDigraph(target) {
		t.Fatalf("did not reach target:\n got %v\nwant %v", g, target)
	}
	return stats
}

// Theorem 1: any weakly connected graph can be transformed into any other
// weakly connected graph on the same nodes, with connectivity verified
// after every primitive.
func TestTheorem1NamedTopologies(t *testing.T) {
	nodes := mkNodes(8)
	shapes := map[string]*graph.Graph{
		"line":     graph.Line(nodes),
		"dirline":  graph.DirectedLine(nodes),
		"ring":     graph.Ring(nodes),
		"star":     graph.Star(nodes),
		"tree":     graph.BinaryTree(nodes),
		"clique":   graph.Clique(nodes),
		"hypercub": graph.Hypercube(nodes),
	}
	for fromName, from := range shapes {
		for toName, to := range shapes {
			stats := transformCase(t, from, to)
			if stats.TotalPrimitives() == 0 && !from.SameSimpleDigraph(to) {
				t.Fatalf("%s->%s: zero ops but graphs differ", fromName, toName)
			}
		}
	}
}

func TestTheorem1RandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(12)
		nodes := mkNodes(n)
		from := graph.RandomConnected(nodes, rng.Intn(2*n), rng)
		to := graph.RandomConnected(nodes, rng.Intn(2*n), rng)
		transformCase(t, from, to)
	}
}

func TestTransformRejectsDifferentNodeSets(t *testing.T) {
	a := mkNodes(3)
	b := mkNodes(4)
	if _, err := Transform(graph.Line(a), graph.Line(b), TransformOptions{}); err == nil {
		t.Fatal("different node sets must be rejected")
	}
}

func TestTransformRejectsDisconnected(t *testing.T) {
	nodes := mkNodes(3)
	g := graph.New()
	for _, n := range nodes {
		g.AddNode(n)
	}
	if _, err := Transform(g, graph.Line(nodes), TransformOptions{}); err == nil {
		t.Fatal("disconnected start must be rejected")
	}
	if _, err := Transform(graph.Line(nodes), g, TransformOptions{}); err == nil {
		t.Fatal("disconnected target must be rejected")
	}
}

func TestTransformTrivialCases(t *testing.T) {
	one := mkNodes(1)
	g := graph.New()
	g.AddNode(one[0])
	if _, err := Transform(g, g.Clone(), TransformOptions{}); err != nil {
		t.Fatal(err)
	}
	nodes := mkNodes(4)
	ring := graph.Ring(nodes)
	stats := transformCase(t, ring, ring)
	if stats.Delegations != 0 {
		t.Fatal("identity transform onto itself needed no delegations beyond cleanup")
	}
}

// Corollary 1: Introduction, Delegation and Fusion are weakly universal —
// reaching a bidirected (hence strongly connected) target needs no
// Reversal.
func TestCorollary1NoReversalForBidirectedTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(9)
		nodes := mkNodes(n)
		from := graph.RandomConnected(nodes, rng.Intn(2*n), rng)
		to := graph.RandomConnected(nodes, rng.Intn(2*n), rng).BidirectedExtension()
		stats := transformCase(t, from, to)
		if stats.Reversals != 0 {
			t.Fatalf("trial %d: bidirected target needed %d reversals", trial, stats.Reversals)
		}
	}
}

// The proof of Theorem 1 observes cliquification takes O(log n) rounds:
// distances halve each round.
func TestCliquifyLogarithmicRounds(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		nodes := mkNodes(n)
		g := graph.DirectedLine(nodes) // worst case: diameter n-1
		rounds, err := Cliquify(g)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != n*(n-1) {
			t.Fatalf("n=%d: not a clique after cliquify", n)
		}
		bound := int(math.Ceil(math.Log2(float64(n)))) + 2
		if rounds > bound {
			t.Fatalf("n=%d: %d rounds exceeds O(log n) bound %d", n, rounds, bound)
		}
	}
}

func TestCliquifyAlreadyClique(t *testing.T) {
	nodes := mkNodes(5)
	g := graph.Clique(nodes)
	rounds, err := Cliquify(g)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 0 {
		t.Fatalf("clique needed %d rounds", rounds)
	}
}

func TestTransformTraceAndCounts(t *testing.T) {
	nodes := mkNodes(5)
	var traced []Op
	g := graph.DirectedLine(nodes)
	stats, err := Transform(g, graph.Ring(nodes), TransformOptions{
		Trace: func(op Op) { traced = append(traced, op) },
	})
	if err != nil {
		t.Fatal(err)
	}
	counted := stats.TotalPrimitives() + stats.Absorbs
	if len(traced) != counted {
		t.Fatalf("trace length %d != counted ops %d", len(traced), counted)
	}
	if stats.Introductions == 0 || stats.Fusions == 0 {
		t.Fatal("a nontrivial transform must introduce and fuse")
	}
}

// Necessity (Theorem 2): each witness target is reachable with all four
// primitives and unreachable without the designated one.
func TestTheorem2Necessity(t *testing.T) {
	for _, w := range Witnesses() {
		nodes := mkNodes(w.Nodes)
		start, target := w.Start(nodes), w.Target(nodes)
		full := Reachable(start, target, AllKinds(), 0)
		if !full.Reachable {
			t.Errorf("%v witness: target must be reachable with all primitives", w.Missing)
		}
		reduced := Reachable(start, target, Without(w.Missing), 0)
		if reduced.Reachable {
			t.Errorf("%v witness: target reachable without %v via %v", w.Missing, w.Missing, reduced.Ops)
		}
		if reduced.StatesExplored == 0 {
			t.Errorf("%v witness: search explored no states", w.Missing)
		}
		if reduced.Truncated {
			t.Errorf("%v witness: search without %v truncated at %d states", w.Missing, w.Missing, reduced.StatesExplored)
		}
	}
}

// A search cut by its state budget says so, so that an exhausted budget
// never reads as "unreachable".
func TestReachableReportsTruncation(t *testing.T) {
	for _, w := range Witnesses() {
		if w.Missing != Delegation {
			continue
		}
		nodes := mkNodes(w.Nodes)
		res := Reachable(w.Start(nodes), w.Target(nodes), Without(Delegation), 10)
		if !res.Truncated || res.Reachable || res.StatesExplored != 10 {
			t.Fatalf("maxStates 10: %+v, want truncated after 10 states", res)
		}
	}
}

// Invariant arguments behind Theorem 2, checked on random instances (these
// justify the multiplicity cap of the exhaustive search).
func TestTheorem2Invariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		nodes := mkNodes(3 + rng.Intn(6))
		base := graph.RandomConnected(nodes, rng.Intn(6), rng)

		// Without Introduction the edge count never increases.
		g := base.Clone()
		for step := 0; step < 150; step++ {
			before := g.NumEdges()
			ops := EnabledOps(g, Without(Introduction))
			if len(ops) == 0 {
				break
			}
			if err := Apply(g, ops[rng.Intn(len(ops))]); err != nil {
				t.Fatal(err)
			}
			if g.NumEdges() > before {
				t.Fatal("edge count grew without Introduction")
			}
		}

		// Without Fusion the edge count never decreases.
		g = base.Clone()
		for step := 0; step < 150; step++ {
			before := g.NumEdges()
			ops := EnabledOps(g, Without(Fusion))
			if len(ops) == 0 {
				break
			}
			if err := Apply(g, ops[rng.Intn(len(ops))]); err != nil {
				t.Fatal(err)
			}
			if g.NumEdges() < before {
				t.Fatal("edge count shrank without Fusion")
			}
		}

		// Without Delegation undirected adjacency between distinct
		// processes is never lost.
		g = base.Clone()
		type pair struct{ a, b ref.Ref }
		adj := map[pair]bool{}
		for _, a := range nodes {
			for _, b := range g.UndirectedNeighbors(a) {
				adj[pair{a, b}] = true
			}
		}
		for step := 0; step < 150; step++ {
			ops := EnabledOps(g, Without(Delegation))
			if len(ops) == 0 {
				break
			}
			if err := Apply(g, ops[rng.Intn(len(ops))]); err != nil {
				t.Fatal(err)
			}
		}
		for p := range adj {
			if !g.HasEdge(p.a, p.b) && !g.HasEdge(p.b, p.a) {
				t.Fatalf("adjacency {%v,%v} lost without Delegation", p.a, p.b)
			}
		}
	}
}

func TestReachableTrivial(t *testing.T) {
	nodes := mkNodes(2)
	g := graph.New()
	g.AddEdge(nodes[0], nodes[1], graph.Explicit)
	res := Reachable(g, g.Clone(), AllKinds(), 0)
	if !res.Reachable || len(res.Ops) != 0 {
		t.Fatal("start == target must be trivially reachable")
	}
}

func TestCliquifyTrivialAndKindString(t *testing.T) {
	one := mkNodes(1)
	g := graph.New()
	g.AddNode(one[0])
	rounds, err := Cliquify(g)
	if err != nil || rounds != 0 {
		t.Fatalf("singleton cliquify: rounds=%d err=%v", rounds, err)
	}
	// Multiplicity normalization inside Cliquify.
	pair := mkNodes(2)
	h := graph.New()
	h.AddEdge(pair[0], pair[1], graph.Explicit)
	h.AddEdge(pair[0], pair[1], graph.Implicit)
	if _, err := Cliquify(h); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("2-clique edges = %d, want 2", h.NumEdges())
	}
	op := Op{Kind: Delegation, U: pair[0], V: pair[1], W: pair[0]}
	if op.String() == "" {
		t.Fatal("Op.String empty")
	}
}
