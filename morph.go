package fdp

import (
	"fmt"

	"fdp/internal/experiments"
	"fdp/internal/graph"
	"fdp/internal/primitives"
	"fdp/internal/ref"
)

// EdgeList describes a directed graph on the node indices 0..n-1.
type EdgeList [][2]int

// MorphReport is the outcome of a Morph transformation (Theorem 1).
type MorphReport struct {
	// CliqueRounds is how many all-pairs introduction rounds phase one
	// took; the paper bounds it by O(log n).
	CliqueRounds int
	// Introductions, Delegations, Fusions and Reversals count primitive
	// applications.
	Introductions, Delegations, Fusions, Reversals int
}

// TotalPrimitives returns the number of primitive applications.
func (m MorphReport) TotalPrimitives() int {
	return m.Introductions + m.Delegations + m.Fusions + m.Reversals
}

// Morph transforms the weakly connected digraph from into the weakly
// connected digraph to (both on nodes 0..n-1) using only the four safe
// primitives of Section 2, following the constructive proof of Theorem 1.
// Weak connectivity is verified after every primitive application.
func Morph(n int, from, to EdgeList) (MorphReport, error) {
	if n < 1 {
		return MorphReport{}, fmt.Errorf("%w: n = %d", ErrBadConfig, n)
	}
	//fdplint:ignore refopacity scenario construction — Morph mints the node universe before any protocol code runs
	nodes := ref.NewSpace().NewN(n)
	build := func(edges EdgeList, name string) (*graph.Graph, error) {
		g := graph.New()
		for _, r := range nodes {
			g.AddNode(r)
		}
		for _, e := range edges {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				return nil, fmt.Errorf("%w: edge %v out of range in %s", ErrBadConfig, e, name)
			}
			g.AddEdge(nodes[e[0]], nodes[e[1]], graph.Explicit)
		}
		return g, nil
	}
	g, err := build(from, "from")
	if err != nil {
		return MorphReport{}, err
	}
	target, err := build(to, "to")
	if err != nil {
		return MorphReport{}, err
	}
	stats, err := primitives.Transform(g, target, primitives.TransformOptions{Verify: true})
	if err != nil {
		return MorphReport{}, err
	}
	return MorphReport{
		CliqueRounds:  stats.CliqueRounds,
		Introductions: stats.Introductions,
		Delegations:   stats.Delegations,
		Fusions:       stats.Fusions,
		Reversals:     stats.Reversals,
	}, nil
}

// ExperimentReport is one rendered experiment of the suite.
type ExperimentReport struct {
	ID     string
	Title  string
	Claim  string
	Pass   bool
	Tables []string
	Plots  []string
	Notes  []string
}

// Experiments runs the reproduction suite E1–E16 (quick=true uses the
// CI-scale configuration) and returns the rendered tables and ASCII plots
// that EXPERIMENTS.md records.
func Experiments(quick bool) []ExperimentReport {
	scale := experiments.Full()
	if quick {
		scale = experiments.Quick()
	}
	var out []ExperimentReport
	for _, r := range experiments.All(scale) {
		rep := ExperimentReport{
			ID: r.ID, Title: r.Title, Claim: r.Claim, Pass: r.Pass, Notes: r.Notes,
		}
		for _, tb := range r.Tables {
			rep.Tables = append(rep.Tables, tb.String())
		}
		for _, s := range r.Series {
			rep.Plots = append(rep.Plots, s.ASCIIPlot(60, 12))
		}
		out = append(out, rep)
	}
	return out
}
