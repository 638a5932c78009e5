// Package graph implements the directed process (multi-)graph PG of the
// paper and the connectivity machinery its proofs rely on.
//
// An edge (a,b) exists when process a stores a reference of b (an explicit
// edge, drawn solid in the paper) or a's channel holds a message carrying a
// reference of b (an implicit edge, drawn dashed). PG is a multigraph: the
// same (a,b) pair may be present several times, e.g. once explicitly and
// twice implicitly; Fusion removes one superfluous copy at a time.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"fdp/internal/ref"
)

// EdgeKind distinguishes explicit from implicit edges.
type EdgeKind uint8

const (
	// Explicit edges come from references stored in process variables.
	Explicit EdgeKind = iota
	// Implicit edges come from references travelling in channel messages.
	Implicit
)

// String returns "explicit" or "implicit".
func (k EdgeKind) String() string {
	if k == Explicit {
		return "explicit"
	}
	return "implicit"
}

// Edge is one directed edge of the process multigraph.
type Edge struct {
	From, To ref.Ref
	Kind     EdgeKind
}

// String renders the edge as "a->b" or "a-->b" (dashed for implicit).
func (e Edge) String() string {
	arrow := "->"
	if e.Kind == Implicit {
		arrow = "-->"
	}
	return fmt.Sprintf("%v%s%v", e.From, arrow, e.To)
}

// Graph is a directed multigraph over process references, stored densely:
// node n lives at ref.Index(n) of a presence vector and a vector of adjacency
// rows. A row holds exactly one entry per distinct undirected neighbour,
// carrying both directions' multiplicities, so an edge a->b is recorded twice
// — as out-counts in a's entry for b and as the in-count of b's entry for a —
// and an entry exists iff at least one edge joins the pair in either
// direction. Hence Degree is a row length, predecessors need no reverse
// index, and removing a node touches only its neighbours' rows.
//
// Row order is insertion order perturbed by swap-removal; nothing exported
// exposes it (slices are sorted, sets are sets). The zero value is not
// usable; call New.
type Graph struct {
	present  []bool
	rows     []row
	numNodes int
}

// counts is what a node keeps per distinct undirected neighbour (an entry's
// Key is the peer).
type counts struct {
	explicit, implicit int32 // multiplicity of node->peer, per kind
	in                 int32 // total multiplicity of peer->node
}

func (c *counts) out() int { return int(c.explicit + c.implicit) }

type (
	entry = Entry[ref.Ref, counts]
	row   = Row[ref.Ref, counts]
)

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return g.restrict(func(ref.Ref) bool { return true })
}

// restrict copies g onto its nodes that satisfy keep: rows are copied entry
// by entry into one shared backing array, each capped so that a later append
// to one row cannot reach its neighbour's.
func (g *Graph) restrict(keep func(ref.Ref) bool) *Graph {
	s := &Graph{present: make([]bool, len(g.present)), rows: make([]row, len(g.rows))}
	total := 0
	for i, p := range g.present {
		if p && keep(ref.ByIndex(i)) {
			s.present[i] = true
			s.numNodes++
			total += len(g.rows[i].ents)
		}
	}
	backing := make([]entry, 0, total)
	for i, p := range s.present {
		if !p {
			continue
		}
		start := len(backing)
		for _, e := range g.rows[i].ents {
			if s.present[ref.Index(e.Key)] {
				backing = append(backing, e)
			}
		}
		r := &s.rows[i]
		r.ents = backing[start:len(backing):len(backing)]
		if len(r.ents) > wideRow {
			r.buildIndex()
		}
	}
	return s
}

// index returns n's position in the dense vectors, or -1 if n cannot be a
// node of g: ⊥, an identity no Space mints (ref.FromWire can produce
// negative ones), or one past everything ever added.
func (g *Graph) index(n ref.Ref) int {
	if i := ref.Index(n); uint(i) < uint(len(g.present)) {
		return i
	}
	return -1
}

// AddNode registers a process with no edges. Adding an existing node is a
// no-op, as is adding ⊥ or any other reference no Space mints.
func (g *Graph) AddNode(n ref.Ref) {
	i := ref.Index(n)
	if i < 0 {
		return
	}
	if grow := i + 1 - len(g.present); grow > 0 {
		g.present = append(g.present, make([]bool, grow)...)
		g.rows = append(g.rows, make([]row, grow)...)
	}
	if !g.present[i] {
		g.present[i] = true
		g.numNodes++
	}
}

// HasNode reports whether n is a node of the graph.
func (g *Graph) HasNode(n ref.Ref) bool {
	i := g.index(n)
	return i >= 0 && g.present[i]
}

// Nodes returns all nodes in deterministic order.
func (g *Graph) Nodes() []ref.Ref {
	out := make([]ref.Ref, 0, g.numNodes)
	for i, p := range g.present {
		if p {
			out = append(out, ref.ByIndex(i))
		}
	}
	return out
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.numNodes }

// AddEdge inserts one directed edge a->b of the given kind, implicitly
// registering both endpoints. Self-loops and edges touching ⊥ (or any other
// reference no Space mints) are ignored: the paper's primitives assume
// pairwise distinct processes and ⊥ is not a process.
func (g *Graph) AddEdge(a, b ref.Ref, kind EdgeKind) {
	if a == b || ref.Index(a) < 0 || ref.Index(b) < 0 {
		return
	}
	g.AddNode(a)
	g.AddNode(b)
	c := g.rows[ref.Index(a)].Slot(b)
	if kind == Explicit {
		c.explicit++
	} else {
		c.implicit++
	}
	g.rows[ref.Index(b)].Slot(a).in++
}

// RemoveEdge removes one copy of the edge a->b of the given kind. It reports
// whether such an edge existed.
func (g *Graph) RemoveEdge(a, b ref.Ref, kind EdgeKind) bool {
	ia := g.index(a)
	if ia < 0 {
		return false
	}
	ra := &g.rows[ia]
	i := ra.Find(b)
	if i < 0 {
		return false
	}
	e := &ra.ents[i]
	n := &e.Val.explicit
	if kind != Explicit {
		n = &e.Val.implicit
	}
	if *n == 0 {
		return false
	}
	*n--
	rb := &g.rows[ref.Index(b)]
	j := rb.Find(a)
	rb.ents[j].Val.in--
	if e.Val.out() == 0 && e.Val.in == 0 {
		ra.Remove(i)
		rb.Remove(j)
	}
	return true
}

// RemoveNode deletes n and all its incident edges, mirroring a process that
// executed exit. It costs one row removal per distinct neighbour.
func (g *Graph) RemoveNode(n ref.Ref) {
	if !g.HasNode(n) {
		return
	}
	i := ref.Index(n)
	for _, e := range g.rows[i].ents {
		rp := &g.rows[ref.Index(e.Key)]
		rp.Remove(rp.Find(n))
	}
	g.rows[i] = row{}
	g.present[i] = false
	g.numNodes--
}

// link returns a's entry for b, or nil if no edge joins them (or either is
// not a node).
func (g *Graph) link(a, b ref.Ref) *entry {
	ia := g.index(a)
	if ia < 0 {
		return nil
	}
	r := &g.rows[ia]
	if i := r.Find(b); i >= 0 {
		return &r.ents[i]
	}
	return nil
}

// adj returns a's adjacency entries (nil if a is not a node). Callers must
// not retain or modify the slice.
func (g *Graph) adj(a ref.Ref) []entry {
	if i := g.index(a); i >= 0 {
		return g.rows[i].ents
	}
	return nil
}

// HasEdge reports whether at least one a->b edge of any kind exists.
func (g *Graph) HasEdge(a, b ref.Ref) bool { return g.EdgeCount(a, b) > 0 }

// HasEdgeKind reports whether at least one a->b edge of the given kind
// exists.
func (g *Graph) HasEdgeKind(a, b ref.Ref, kind EdgeKind) bool {
	e := g.link(a, b)
	if e == nil {
		return false
	}
	if kind == Explicit {
		return e.Val.explicit > 0
	}
	return e.Val.implicit > 0
}

// EdgeCount returns the multiplicity of a->b (all kinds).
func (g *Graph) EdgeCount(a, b ref.Ref) int {
	e := g.link(a, b)
	if e == nil {
		return 0
	}
	return e.Val.out()
}

// NumEdges returns the total number of edges counting multiplicity.
func (g *Graph) NumEdges() int {
	total := 0
	for i := range g.rows {
		for j := range g.rows[i].ents {
			total += g.rows[i].ents[j].Val.out()
		}
	}
	return total
}

// Edges returns every edge (with multiplicity) in deterministic order.
func (g *Graph) Edges() []Edge {
	var edges []Edge
	for i := range g.rows {
		a := ref.ByIndex(i)
		for _, b := range g.Succ(a) {
			e := g.link(a, b)
			for k := int32(0); k < e.Val.explicit; k++ {
				edges = append(edges, Edge{a, b, Explicit})
			}
			for k := int32(0); k < e.Val.implicit; k++ {
				edges = append(edges, Edge{a, b, Implicit})
			}
		}
	}
	return edges
}

// EachOut calls fn for every node a has an edge to, with the multiplicity of
// a's explicit and of its implicit edges to it, in no promised order and
// without building a slice. fn must not change g.
func (g *Graph) EachOut(a ref.Ref, fn func(b ref.Ref, explicit, implicit int)) {
	for _, e := range g.adj(a) {
		if e.Val.out() > 0 {
			fn(e.Key, int(e.Val.explicit), int(e.Val.implicit))
		}
	}
}

// Adjacency directions, for peers.
const (
	dirOut = 1 << iota
	dirIn
)

// peers returns, sorted, the neighbours of a joined to it by an edge in one
// of the given directions.
func (g *Graph) peers(a ref.Ref, dirs int) []ref.Ref {
	ents := g.adj(a)
	out := make([]ref.Ref, 0, len(ents))
	for i := range ents {
		e := &ents[i]
		if dirs&dirOut != 0 && e.Val.out() > 0 || dirs&dirIn != 0 && e.Val.in > 0 {
			out = append(out, e.Key)
		}
	}
	ref.Sort(out)
	return out
}

// Succ returns the distinct successors of a in deterministic order.
func (g *Graph) Succ(a ref.Ref) []ref.Ref { return g.peers(a, dirOut) }

// Pred returns the distinct predecessors of a in deterministic order.
func (g *Graph) Pred(a ref.Ref) []ref.Ref { return g.peers(a, dirIn) }

// UndirectedNeighbors returns every node connected to a by an edge in either
// direction — the notion SINGLE quantifies over ("u has edges with at most
// one other relevant process").
func (g *Graph) UndirectedNeighbors(a ref.Ref) []ref.Ref { return g.peers(a, dirOut|dirIn) }

// Degree returns the number of distinct undirected neighbors of a. It is
// O(1): a's row has one entry per such neighbor.
func (g *Graph) Degree(a ref.Ref) int { return len(g.adj(a)) }

// InducedSubgraph returns the subgraph on the node set keep, dropping all
// edges with an endpoint outside keep. This is PG restricted to relevant
// processes.
func (g *Graph) InducedSubgraph(keep ref.Set) *Graph {
	return g.restrict(keep.Has)
}

// sameNodes reports whether g and h have the same node set. Their vectors
// may differ in length: a node added and removed leaves its slot behind.
func (g *Graph) sameNodes(h *Graph) bool {
	if g.numNodes != h.numNodes {
		return false
	}
	for i, p := range g.present {
		if p && (i >= len(h.present) || !h.present[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether g and h have the same nodes and the same edge
// multiset (kind-sensitive).
func (g *Graph) Equal(h *Graph) bool {
	if !g.sameNodes(h) {
		return false
	}
	for i, p := range g.present {
		if !p {
			continue
		}
		gr, hr := &g.rows[i], &h.rows[i]
		if len(gr.ents) != len(hr.ents) {
			return false
		}
		for _, e := range gr.ents {
			if j := hr.Find(e.Key); j < 0 || hr.ents[j] != e {
				return false
			}
		}
	}
	return true
}

// SameSimpleDigraph reports whether g and h have the same nodes and the same
// set of directed edges ignoring multiplicity and kind. This is the notion
// of "reaching topology G′" used by Theorem 1: a protocol cannot control
// whether an edge is momentarily implicit.
func (g *Graph) SameSimpleDigraph(h *Graph) bool {
	return g.sameNodes(h) && g.simpleWithin(h) && h.simpleWithin(g)
}

// simpleWithin reports whether every directed edge of g, ignoring
// multiplicity and kind, is an edge of h.
func (g *Graph) simpleWithin(h *Graph) bool {
	for i := range g.rows {
		for _, e := range g.rows[i].ents {
			if e.Val.out() > 0 && !h.HasEdge(ref.ByIndex(i), e.Key) {
				return false
			}
		}
	}
	return true
}

// String renders a compact description, for debugging and test failures.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph{n=%d", g.NumNodes())
	for _, e := range g.Edges() {
		b.WriteString(" ")
		b.WriteString(e.String())
	}
	b.WriteString("}")
	return b.String()
}

// DOT renders the graph in Graphviz format. Explicit edges are solid,
// implicit edges dashed, matching the paper's figures.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  %q;\n", n.String())
	}
	for _, e := range g.Edges() {
		style := "solid"
		if e.Kind == Implicit {
			style = "dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [style=%s];\n", e.From.String(), e.To.String(), style)
	}
	b.WriteString("}\n")
	return b.String()
}

// degreeSequence returns the sorted undirected degree sequence, used by
// tests comparing generated topologies.
func (g *Graph) degreeSequence() []int {
	seq := make([]int, 0, g.numNodes)
	for i, p := range g.present {
		if p {
			seq = append(seq, len(g.rows[i].ents))
		}
	}
	sort.Ints(seq)
	return seq
}
