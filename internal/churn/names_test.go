package churn

import (
	"strings"
	"testing"

	"fdp/internal/core"
	"fdp/internal/graph"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Every value of each vocabulary resolves from the name it prints, and a
// name nothing prints is an error that lists the ones something does.
func TestByNameInvertsString(t *testing.T) {
	for _, topo := range Topologies() {
		if got, err := TopologyByName(topo.String()); err != nil || got != topo {
			t.Errorf("topology %q resolves to %v, %v", topo, got, err)
		}
	}
	for _, pat := range Patterns() {
		if got, err := PatternByName(pat.String()); err != nil || got != pat {
			t.Errorf("pattern %q resolves to %v, %v", pat, got, err)
		}
	}
	// The fdpsim spellings that predate the shared table are not aliases.
	for _, name := range []string{"", "Line", "dirline", "hypercub", "rng"} {
		_, err := TopologyByName(name)
		if err == nil || !strings.Contains(err.Error(), "directed-line") || !strings.Contains(err.Error(), "random-regular") {
			t.Errorf("topology %q: err = %v, want the known names", name, err)
		}
	}
	if _, err := PatternByName("allbutone"); err == nil || !strings.Contains(err.Error(), "all-but-one") {
		t.Errorf("pattern allbutone: err = %v, want the known names", err)
	}
}

// handLaid is the scenario construction fdp.CheckSchedules, cmd/fdpcheck and
// experiment E14 each carried a copy of before they built through TryBuild.
// It survives here only, as the reference the builder is held to.
func handLaid(n, leavers int, shape func([]ref.Ref) *graph.Graph, orc sim.Oracle) *sim.World {
	nodes := ref.NewSpace().NewN(n)
	leaving := ref.NewSet()
	start := (n - leavers) / 2
	for i := start; i < start+leavers; i++ {
		leaving.Add(nodes[i])
	}
	mode := func(r ref.Ref) sim.Mode {
		if leaving.Has(r) {
			return sim.Leaving
		}
		return sim.Staying
	}
	w := sim.NewWorld(orc)
	procs := make(map[ref.Ref]*core.Proc, n)
	for _, r := range nodes {
		procs[r] = core.New(core.VariantFDP)
		w.AddProcess(r, mode(r), procs[r])
	}
	for _, e := range shape(nodes).Edges() {
		procs[e.From].SetNeighbor(e.To, mode(e.To))
	}
	w.SealInitialState()
	return w
}

// TestBuildMatchesHandLaidWorld: with the leavers named as the middle block
// and no corruption, the builder's world is the hand-laid one — same
// fingerprint, so the checker explores the same state space from either.
func TestBuildMatchesHandLaidWorld(t *testing.T) {
	shapes := []struct {
		topo  Topology
		shape func([]ref.Ref) *graph.Graph
	}{
		{TopoLine, graph.Line}, {TopoRing, graph.Ring}, {TopoClique, graph.Clique},
	}
	for _, sh := range shapes {
		for n := 2; n <= 5; n++ {
			for leavers := 0; leavers < n; leavers++ {
				var idx []int
				for i := (n - leavers) / 2; len(idx) < leavers; i++ {
					idx = append(idx, i)
				}
				s, err := TryBuild(Config{N: n, Topology: sh.topo, LeaverIndices: idx, Oracle: oracle.Single{}})
				if err != nil {
					t.Fatalf("%v n=%d leavers=%v: %v", sh.topo, n, idx, err)
				}
				want := handLaid(n, leavers, sh.shape, oracle.Single{}).Fingerprint()
				if got := s.World.Fingerprint(); got != want {
					t.Errorf("%v n=%d leavers=%v: fingerprint differs from the hand-laid world\n got %s\nwant %s",
						sh.topo, n, idx, got, want)
				}
			}
		}
	}
}
