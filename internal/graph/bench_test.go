package graph

import (
	"fmt"
	"testing"

	"fdp/internal/ref"
)

// edgeBenchDegrees are the hub degrees the edge operations are measured at:
// a narrow row, a row just past wideRow, and the star sim-scale runs build.
var edgeBenchDegrees = []int{4, 64, 20000}

// hubAndLeaf returns a star whose hub has the given degree, and one of its
// middle leaves.
func hubAndLeaf(deg int) (g *Graph, hub, leaf ref.Ref) {
	nodes := ref.NewSpace().NewN(deg + 1)
	return Star(nodes), nodes[0], nodes[1+deg/2]
}

// BenchmarkGraphEdge is the sequential engine's per-message graph work: an
// implicit edge added to and removed from a pair that is already adjacent,
// once from each end.
func BenchmarkGraphEdge(b *testing.B) {
	for _, deg := range edgeBenchDegrees {
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			g, hub, leaf := hubAndLeaf(deg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.AddEdge(hub, leaf, Implicit)
				g.AddEdge(leaf, hub, Implicit)
				g.RemoveEdge(hub, leaf, Implicit)
				g.RemoveEdge(leaf, hub, Implicit)
			}
		})
	}
}

// TestGraphEdgeAllocationFree guards what BenchmarkGraphEdge measures: at no
// degree does touching an existing pair allocate.
func TestGraphEdgeAllocationFree(t *testing.T) {
	for _, deg := range edgeBenchDegrees {
		g, hub, leaf := hubAndLeaf(deg)
		if allocs := testing.AllocsPerRun(100, func() {
			g.AddEdge(hub, leaf, Implicit)
			g.RemoveEdge(hub, leaf, Implicit)
		}); allocs != 0 {
			t.Errorf("deg=%d: %.1f allocations per add+remove, want 0", deg, allocs)
		}
	}
}

// BenchmarkGraphHub is the case a row without an index gets wrong: a
// 20000-leaf star is built, every leaf's pair gains and loses an implicit
// edge, then the hub exits. Every step is one edge operation on the hub's
// row, so the whole is linear only if each is O(1).
func BenchmarkGraphHub(b *testing.B) {
	nodes := ref.NewSpace().NewN(20001)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := Star(nodes)
		for _, leaf := range nodes[1:] {
			g.AddEdge(leaf, nodes[0], Implicit)
			g.RemoveEdge(leaf, nodes[0], Implicit)
		}
		g.RemoveNode(nodes[0])
		if g.NumEdges() != 0 {
			b.Fatal("edges left after the hub exited")
		}
	}
}
