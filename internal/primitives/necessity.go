package primitives

import (
	"strconv"

	"fdp/internal/check"
	"fdp/internal/graph"
	"fdp/internal/ref"
)

// This file makes Theorem 2 ("Introduction, Delegation, Fusion and Reversal
// are necessary for universality") executable: for each primitive it
// provides a small start/target pair such that the target is reachable with
// all four primitives but provably unreachable when that primitive is
// removed. Unreachability is established by exhaustive breadth-first search
// over the full (multiplicity-capped) state space of the small instance;
// the accompanying tests additionally check the paper's invariant argument
// (e.g. without Introduction the edge count never grows) on random
// instances, which justifies the cap.

// SearchResult reports a reachability search outcome.
type SearchResult struct {
	Reachable      bool
	Ops            []Op // a witness sequence when reachable
	StatesExplored int
	Truncated      bool // the budget ran out: Reachable false then decides nothing
}

// multiplicityCap bounds parallel edges during the search; the witness
// instances need at most two parallel edges, so a cap of three is ample.
const multiplicityCap = 3

// Reachable performs an exhaustive BFS (a check.Search) from start over all
// states reachable with the allowed primitive kinds (nil = all four),
// deciding whether some state equals target as a simple digraph with all
// references absorbed. maxStates bounds the exploration (0 = 1<<20).
func Reachable(start, target *graph.Graph, allowed map[Kind]bool, maxStates int) SearchResult {
	goal := string(appendKey(normalized(target), nil))
	res := check.Search(normalized(start), maxStates, appendKey,
		func(g *graph.Graph, yield func(Op, *graph.Graph)) {
			for _, op := range EnabledOps(g, allowed) {
				if op.Kind == AbsorbStep {
					continue // states are kept fully absorbed
				}
				next := g.Clone()
				if Apply(next, op) != nil {
					continue
				}
				if AbsorbAll(next); !exceedsCap(next) {
					yield(op, next)
				}
			}
		},
		func(g *graph.Graph, _ int) check.Verdict {
			if string(appendKey(g, nil)) == goal {
				return check.Stop
			}
			return check.Expand
		})
	return SearchResult{Reachable: res.Stopped, Ops: res.Path, StatesExplored: res.States, Truncated: res.Truncated}
}

// normalized returns a copy with every implicit edge absorbed — search
// states are "all messages processed" states, which is sufficient because
// absorbing never disables a primitive.
func normalized(g *graph.Graph) *graph.Graph {
	c := g.Clone()
	AbsorbAll(c)
	return c
}

func exceedsCap(g *graph.Graph) bool {
	for _, u := range g.Nodes() {
		for _, v := range g.Succ(u) {
			if g.EdgeCount(u, v) > multiplicityCap {
				return true
			}
		}
	}
	return false
}

// appendKey appends g's nodes and edges with multiplicities to b.
func appendKey(g *graph.Graph, b []byte) []byte {
	for _, u := range g.Nodes() {
		b = append(u.Append(b), ';')
	}
	b = append(b, '|')
	for _, u := range g.Nodes() {
		for _, v := range g.Succ(u) {
			b = append(u.Append(b), '>')
			b = append(v.Append(b), '*')
			b = append(strconv.AppendInt(b, int64(g.EdgeCount(u, v)), 10), ';')
		}
	}
	return b
}

// NecessityWitness is one instance of the Theorem 2 proof: Target is
// reachable from Start with all four primitives but not without Missing.
type NecessityWitness struct {
	Missing     Kind
	Description string
	Nodes       int
	Start       func(nodes []ref.Ref) *graph.Graph
	Target      func(nodes []ref.Ref) *graph.Graph
}

// Witnesses returns the four witness instances used in the Theorem 2 proof.
func Witnesses() []NecessityWitness {
	return []NecessityWitness{
		{
			Missing:     Introduction,
			Description: "only Introduction creates new edges: |E'| > |E| is unreachable without it",
			Nodes:       2,
			Start: func(n []ref.Ref) *graph.Graph {
				g := graph.New()
				g.AddEdge(n[0], n[1], graph.Explicit)
				return g
			},
			Target: func(n []ref.Ref) *graph.Graph {
				g := graph.New()
				g.AddEdge(n[0], n[1], graph.Explicit)
				g.AddEdge(n[1], n[0], graph.Explicit)
				return g
			},
		},
		{
			Missing:     Fusion,
			Description: "only Fusion reduces the number of edges: |E'| < |E| is unreachable without it",
			Nodes:       2,
			Start: func(n []ref.Ref) *graph.Graph {
				g := graph.New()
				g.AddEdge(n[0], n[1], graph.Explicit)
				g.AddEdge(n[1], n[0], graph.Explicit)
				return g
			},
			Target: func(n []ref.Ref) *graph.Graph {
				g := graph.New()
				g.AddEdge(n[0], n[1], graph.Explicit)
				return g
			},
		},
		{
			Missing:     Delegation,
			Description: "without Delegation two adjacent processes can never be locally disconnected",
			Nodes:       3,
			Start: func(n []ref.Ref) *graph.Graph {
				g := graph.New()
				g.AddEdge(n[0], n[1], graph.Explicit)
				g.AddEdge(n[1], n[2], graph.Explicit)
				return g
			},
			Target: func(n []ref.Ref) *graph.Graph {
				g := graph.New()
				g.AddEdge(n[0], n[2], graph.Explicit)
				g.AddEdge(n[2], n[1], graph.Explicit)
				return g
			},
		},
		{
			Missing:     Reversal,
			Description: "G = {(u,v)} to G' = {(v,u)} needs Reversal",
			Nodes:       2,
			Start: func(n []ref.Ref) *graph.Graph {
				g := graph.New()
				g.AddEdge(n[0], n[1], graph.Explicit)
				return g
			},
			Target: func(n []ref.Ref) *graph.Graph {
				g := graph.New()
				g.AddEdge(n[1], n[0], graph.Explicit)
				return g
			},
		},
	}
}

// AllKinds returns the full primitive set for search configuration.
func AllKinds() map[Kind]bool {
	return map[Kind]bool{Introduction: true, Delegation: true, Fusion: true, Reversal: true}
}

// Without returns the full set minus k.
func Without(k Kind) map[Kind]bool {
	m := AllKinds()
	m[k] = false
	return m
}
