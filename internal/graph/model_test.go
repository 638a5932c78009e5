package graph

import (
	"math/rand"
	"slices"
	"testing"

	"fdp/internal/ref"
)

// The model the dense representation is checked against shares no code with
// it: a node set and a flat map from ordered pair to per-kind multiplicity.
// Every query is answered by scanning the universe.

type model struct {
	nodes map[ref.Ref]bool
	edges map[[2]ref.Ref][2]int // [explicit, implicit] of a->b
}

func newModel() *model {
	return &model{nodes: map[ref.Ref]bool{}, edges: map[[2]ref.Ref][2]int{}}
}

func (m *model) clone() *model {
	c := newModel()
	for n := range m.nodes {
		c.nodes[n] = true
	}
	for k, v := range m.edges {
		c.edges[k] = v
	}
	return c
}

func (m *model) addNode(n ref.Ref) {
	if !n.IsNil() {
		m.nodes[n] = true
	}
}

func (m *model) addEdge(a, b ref.Ref, kind EdgeKind) {
	if a.IsNil() || b.IsNil() || a == b {
		return
	}
	m.addNode(a)
	m.addNode(b)
	c := m.edges[[2]ref.Ref{a, b}]
	c[kind]++
	m.edges[[2]ref.Ref{a, b}] = c
}

func (m *model) removeEdge(a, b ref.Ref, kind EdgeKind) bool {
	c := m.edges[[2]ref.Ref{a, b}]
	if c[kind] == 0 {
		return false
	}
	c[kind]--
	if c == [2]int{} {
		delete(m.edges, [2]ref.Ref{a, b})
	} else {
		m.edges[[2]ref.Ref{a, b}] = c
	}
	return true
}

func (m *model) removeNode(n ref.Ref) {
	delete(m.nodes, n)
	for k := range m.edges {
		if k[0] == n || k[1] == n {
			delete(m.edges, k)
		}
	}
}

func (m *model) induced(keep ref.Set) *model {
	c := newModel()
	for n := range m.nodes {
		if keep.Has(n) {
			c.nodes[n] = true
		}
	}
	for k, v := range m.edges {
		if keep.Has(k[0]) && keep.Has(k[1]) {
			c.edges[k] = v
		}
	}
	return c
}

func (m *model) count(a, b ref.Ref) int {
	c := m.edges[[2]ref.Ref{a, b}]
	return c[0] + c[1]
}

// components partitions the nodes (universe order) by undirected
// reachability, each component and the list ordered as the graph's are.
func (m *model) components(universe []ref.Ref) [][]ref.Ref {
	comp := map[ref.Ref]int{}
	var comps [][]ref.Ref
	for _, s := range universe {
		if _, done := comp[s]; done || !m.nodes[s] {
			continue
		}
		id := len(comps)
		comp[s] = id
		members := []ref.Ref{s}
		for i := 0; i < len(members); i++ {
			for _, b := range universe {
				if _, done := comp[b]; !done && m.count(members[i], b)+m.count(b, members[i]) > 0 {
					comp[b] = id
					members = append(members, b)
				}
			}
		}
		ref.Sort(members)
		comps = append(comps, members)
	}
	return comps
}

// build replays the model into a fresh graph through the public API.
func (m *model) build(universe []ref.Ref) *Graph {
	g := New()
	for _, a := range universe {
		if m.nodes[a] {
			g.AddNode(a)
		}
	}
	for _, a := range universe {
		for _, b := range universe {
			c := m.edges[[2]ref.Ref{a, b}]
			for i := 0; i < c[Explicit]; i++ {
				g.AddEdge(a, b, Explicit)
			}
			for i := 0; i < c[Implicit]; i++ {
				g.AddEdge(a, b, Implicit)
			}
		}
	}
	return g
}

// checkAgainst asserts that every query of g answers as the model does.
// universe is sorted and may hold ⊥ and references that are not nodes.
func checkAgainst(t testing.TB, g *Graph, m *model, universe []ref.Ref) {
	t.Helper()
	keep := ref.NewSet()
	for i, n := range universe {
		if i%3 != 1 {
			keep.Add(n)
		}
	}
	var nodes []ref.Ref
	var edges []Edge
	numEdges := 0
	for _, a := range universe {
		if g.HasNode(a) != m.nodes[a] {
			t.Fatalf("HasNode(%v) = %v, model %v", a, g.HasNode(a), m.nodes[a])
		}
		if m.nodes[a] {
			nodes = append(nodes, a)
		}
		var succ, pred, nbrs []ref.Ref
		for _, b := range universe {
			c := m.edges[[2]ref.Ref{a, b}]
			out, in := c[0]+c[1], m.count(b, a)
			numEdges += out
			if got := g.EdgeCount(a, b); got != out {
				t.Fatalf("EdgeCount(%v,%v) = %d, model %d", a, b, got, out)
			}
			if g.HasEdge(a, b) != (out > 0) ||
				g.HasEdgeKind(a, b, Explicit) != (c[Explicit] > 0) ||
				g.HasEdgeKind(a, b, Implicit) != (c[Implicit] > 0) {
				t.Fatalf("HasEdge/HasEdgeKind(%v,%v) disagree with model %v", a, b, c)
			}
			for i := 0; i < c[Explicit]; i++ {
				edges = append(edges, Edge{a, b, Explicit})
			}
			for i := 0; i < c[Implicit]; i++ {
				edges = append(edges, Edge{a, b, Implicit})
			}
			if out > 0 {
				succ = append(succ, b)
			}
			if in > 0 {
				pred = append(pred, b)
			}
			if out+in > 0 {
				nbrs = append(nbrs, b)
			}
		}
		if got := g.Succ(a); !slices.Equal(got, succ) {
			t.Fatalf("Succ(%v) = %v, model %v", a, got, succ)
		}
		var each []ref.Ref
		g.EachOut(a, func(b ref.Ref, explicit, implicit int) {
			if c := m.edges[[2]ref.Ref{a, b}]; c != [2]int{explicit, implicit} {
				t.Fatalf("EachOut(%v) gives %v ×%d/%d, model %v", a, b, explicit, implicit, c)
			}
			each = append(each, b)
		})
		if ref.Sort(each); !slices.Equal(each, succ) {
			t.Fatalf("EachOut(%v) visits %v, model %v", a, each, succ)
		}
		if got := g.Pred(a); !slices.Equal(got, pred) {
			t.Fatalf("Pred(%v) = %v, model %v", a, got, pred)
		}
		if got := g.UndirectedNeighbors(a); !slices.Equal(got, nbrs) {
			t.Fatalf("UndirectedNeighbors(%v) = %v, model %v", a, got, nbrs)
		}
		if got := g.Degree(a); got != len(nbrs) {
			t.Fatalf("Degree(%v) = %d, model %d", a, got, len(nbrs))
		}
	}
	if got := g.Nodes(); !slices.Equal(got, nodes) || g.NumNodes() != len(nodes) {
		t.Fatalf("Nodes() = %v (NumNodes %d), model %v", got, g.NumNodes(), nodes)
	}
	if got := g.NumEdges(); got != numEdges {
		t.Fatalf("NumEdges() = %d, model %d", got, numEdges)
	}
	if got := g.Edges(); !slices.Equal(got, edges) {
		t.Fatalf("Edges() = %v, model %v", got, edges)
	}
	want := m.components(universe)
	if got := g.WeaklyConnectedComponents(); !slices.EqualFunc(got, want, slices.Equal[[]ref.Ref]) {
		t.Fatalf("WeaklyConnectedComponents() = %v, model %v", got, want)
	}
	for _, comp := range want {
		if got := g.UndirectedReach(comp[0]).Sorted(); !slices.Equal(got, comp) {
			t.Fatalf("UndirectedReach(%v) = %v, model %v", comp[0], got, comp)
		}
	}
	// Equal against a graph with another history: same content, rows filled
	// in universe order, never shrunk.
	fresh := m.build(universe)
	if !g.Equal(fresh) || !fresh.Equal(g) || !g.SameSimpleDigraph(fresh) {
		t.Fatalf("graph %v not Equal to the model's rebuild %v", g, fresh)
	}
	if len(edges) > 0 {
		e := edges[len(edges)/2]
		fresh.RemoveEdge(e.From, e.To, e.Kind)
		if g.Equal(fresh) || fresh.Equal(g) {
			t.Fatalf("Equal missed the removal of %v", e)
		}
	}
}

// Operations of a script, three bytes each: opcode, a, b (both reduced
// modulo the universe).
const (
	opAddExplicit = iota
	opAddImplicit
	opRemoveExplicit
	opRemoveImplicit
	opAddNode
	opRemoveNode
	opClone   // continue on a clone; the original becomes the shadow
	opInduced // continue on an induced subgraph; the original becomes the shadow
	opSwap    // continue on the shadow
	numOps
)

// modelUniverse is ⊥ plus enough references that one node can have more
// than wideRow neighbours.
func modelUniverse() []ref.Ref {
	return append([]ref.Ref{ref.Nil}, ref.NewSpace().NewN(wideRow+8)...)
}

// runScript applies the script to a graph and the model side by side and
// checks both — and the shadow pair left behind by the last clone or
// restriction, which later operations must not reach — after every
// operation. observe, if set, is shown the graph the script is on after each.
func runScript(t testing.TB, script []byte, observe func(*Graph)) {
	t.Helper()
	universe := modelUniverse()
	g, m := New(), newModel()
	var sg *Graph
	var sm *model
	for ; len(script) >= 3; script = script[3:] {
		a := universe[int(script[1])%len(universe)]
		b := universe[int(script[2])%len(universe)]
		switch op := script[0] % numOps; op {
		case opAddExplicit, opAddImplicit:
			kind := EdgeKind(op - opAddExplicit)
			g.AddEdge(a, b, kind)
			m.addEdge(a, b, kind)
		case opRemoveExplicit, opRemoveImplicit:
			kind := EdgeKind(op - opRemoveExplicit)
			if got, want := g.RemoveEdge(a, b, kind), m.removeEdge(a, b, kind); got != want {
				t.Fatalf("RemoveEdge(%v,%v,%v) = %v, model %v", a, b, kind, got, want)
			}
		case opAddNode:
			g.AddNode(a)
			m.addNode(a)
		case opRemoveNode:
			g.RemoveNode(a)
			m.removeNode(a)
		case opClone:
			sg, sm = g, m
			g, m = g.Clone(), m.clone()
		case opInduced:
			keep := ref.NewSet()
			for i, n := range universe {
				if (i*int(script[1])+int(script[2]))%4 != 0 {
					keep.Add(n)
				}
			}
			sg, sm = g, m
			g, m = g.InducedSubgraph(keep), m.induced(keep)
		case opSwap:
			if sg != nil {
				g, m, sg, sm = sg, sm, g, m
			}
		}
		checkAgainst(t, g, m, universe)
		if sg != nil {
			checkAgainst(t, sg, sm, universe)
		}
		if observe != nil {
			observe(g)
		}
	}
}

// hubScript drives node 1 across the wide-row threshold and back: edges of
// both kinds and directions to every other node, a clone and a restriction
// taken while the row is wide, then the edges removed again one by one until
// the row is narrow, then the hub itself.
func hubScript() []byte {
	n := byte(len(modelUniverse()))
	var s []byte
	for b := byte(2); b < n; b++ {
		if b%2 == 0 {
			s = append(s, opAddExplicit, 1, b, opAddImplicit, 1, b)
		} else {
			s = append(s, opAddImplicit, b, 1)
		}
		if b%5 == 0 {
			s = append(s, opAddExplicit, b, 1, opAddExplicit, b, b-1)
		}
	}
	s = append(s, opClone, 0, 0, opRemoveNode, 7, 0, opInduced, 3, 1, opSwap, 0, 0)
	for b := n - 1; b >= 6; b-- {
		s = append(s, opRemoveExplicit, 1, b, opRemoveImplicit, 1, b, opRemoveImplicit, b, 1, opRemoveExplicit, b, 1)
	}
	s = append(s, opAddImplicit, 1, n-1, opSwap, 0, 0, opRemoveNode, 1, 0, opSwap, 0, 0, opRemoveNode, 1, 0)
	return s
}

// TestGraphMatchesModel runs the hub script and random scripts against the
// model. The scripts mix both kinds, multi-edges, self and ⊥ edges, node
// removal, Clone-then-diverge and InducedSubgraph. It also pins what the hub
// script is for: if wideRow or the universe changes so that the hub's row no
// longer crosses the threshold both ways, this fails rather than the
// coverage silently going.
func TestGraphMatchesModel(t *testing.T) {
	hub := ref.Index(modelUniverse()[1])
	wide, narrowAgain := false, false
	runScript(t, hubScript(), func(g *Graph) {
		if hub >= len(g.rows) {
			return
		}
		if r := &g.rows[hub]; r.idx != nil {
			wide = true
			if len(r.idx) != len(r.ents) {
				t.Fatalf("index holds %d peers, row %d", len(r.idx), len(r.ents))
			}
		} else if wide {
			narrowAgain = true
		}
	})
	if !wide || !narrowAgain {
		t.Fatalf("hub row indexed: %v, narrow again afterwards: %v", wide, narrowAgain)
	}

	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		script := make([]byte, 3*150)
		rng.Read(script)
		for i := 0; i < len(script); i += 3 {
			// Bias toward insertion, and toward a small neighbourhood so
			// multi-edges and removals of existing edges are common.
			if rng.Intn(3) == 0 {
				script[i] = byte(rng.Intn(2))
			}
			if trial%2 == 0 {
				script[i+1] %= 8
			}
		}
		runScript(t, script, nil)
	}
}

// FuzzGraphOps feeds arbitrary scripts to the same checker.
func FuzzGraphOps(f *testing.F) {
	f.Add(hubScript())
	f.Add([]byte{opAddExplicit, 1, 2, opAddImplicit, 2, 1, opClone, 0, 0, opRemoveNode, 2, 0, opSwap, 0, 0})
	f.Add([]byte{opAddImplicit, 3, 3, opAddExplicit, 0, 4, opInduced, 5, 2, opRemoveExplicit, 1, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*200 {
			script = script[:3*200]
		}
		runScript(t, script, nil)
	})
}
