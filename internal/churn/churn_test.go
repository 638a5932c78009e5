package churn

import (
	"errors"
	"testing"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/sim"
)

func TestBuildBasics(t *testing.T) {
	s := Build(Config{N: 10, Topology: TopoRing, LeaveFraction: 0.5,
		Pattern: LeaveRandom, Oracle: oracle.Single{}, Seed: 1})
	if len(s.Nodes) != 10 || len(s.Procs) != 10 {
		t.Fatal("wrong node count")
	}
	if s.Leaving.Len() != 5 {
		t.Fatalf("leavers = %d, want 5", s.Leaving.Len())
	}
	if len(s.StayingNodes())+len(s.LeavingNodes()) != 10 {
		t.Fatal("partition broken")
	}
	for _, r := range s.LeavingNodes() {
		if s.World.ModeOf(r) != sim.Leaving {
			t.Fatal("mode not applied")
		}
	}
	if s.World.InitialComponents() == nil {
		t.Fatal("initial state not sealed")
	}
}

func TestBuildCleanStateIsValid(t *testing.T) {
	s := Build(Config{N: 12, Topology: TopoRandom, LeaveFraction: 0.4,
		Pattern: LeaveRandom, Seed: 3})
	if phi := core.Phi(s.World); phi != 0 {
		t.Fatalf("clean build must have Φ = 0, got %d", phi)
	}
}

func TestBuildCorruptionProducesInvalidInfo(t *testing.T) {
	s := Build(Config{N: 12, Topology: TopoRandom, LeaveFraction: 0.4,
		Pattern: LeaveRandom, Seed: 3,
		Corrupt: Corruption{FlipBeliefs: 1.0, RandomAnchors: 1.0, JunkMessages: 20}})
	if phi := core.Phi(s.World); phi == 0 {
		t.Fatal("fully corrupted build must have Φ > 0")
	}
}

func TestBuildLeaveCap(t *testing.T) {
	// Fraction 1.0 must be capped to n-1: at least one staying process.
	s := Build(Config{N: 8, Topology: TopoLine, LeaveFraction: 1.0,
		Pattern: LeaveRandom, Seed: 5})
	if s.Leaving.Len() != 7 {
		t.Fatalf("leavers = %d, want 7 (capped)", s.Leaving.Len())
	}
	if len(s.StayingNodes()) != 1 {
		t.Fatal("one staying process must remain")
	}
}

func TestBuildAllButOne(t *testing.T) {
	s := Build(Config{N: 6, Topology: TopoClique, Pattern: LeaveAllButOne, Seed: 2})
	if s.Leaving.Len() != 5 {
		t.Fatalf("leavers = %d, want 5", s.Leaving.Len())
	}
}

func TestBuildArticulationTargetsCutVertices(t *testing.T) {
	s := Build(Config{N: 9, Topology: TopoStar, LeaveFraction: 0.12,
		Pattern: LeaveArticulation, Seed: 4})
	// The star hub is the only articulation point; with k=1 it must be it.
	if !s.Leaving.Has(s.Nodes[0]) {
		t.Fatal("articulation pattern must pick the star hub first")
	}
}

func TestBuildBlockIsContiguous(t *testing.T) {
	s := Build(Config{N: 10, Topology: TopoLine, LeaveFraction: 0.3,
		Pattern: LeaveBlock, Seed: 6})
	first, last := -1, -1
	for i, r := range s.Nodes {
		if s.Leaving.Has(r) {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last-first+1 != s.Leaving.Len() {
		t.Fatalf("block not contiguous: first=%d last=%d len=%d", first, last, s.Leaving.Len())
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := Config{N: 15, Topology: TopoRandom, LeaveFraction: 0.5,
		Pattern: LeaveRandom, Seed: 9,
		Corrupt: Corruption{FlipBeliefs: 0.5, RandomAnchors: 0.5, JunkMessages: 10}}
	a, b := Build(cfg), Build(cfg)
	if !a.Leaving.Equal(b.Leaving) {
		t.Fatal("leaver choice nondeterministic")
	}
	if core.Phi(a.World) != core.Phi(b.World) {
		t.Fatal("corruption nondeterministic")
	}
	if !a.Initial.Equal(b.Initial) {
		t.Fatal("topology nondeterministic")
	}
}

func TestBuildInitialStateConstraints(t *testing.T) {
	// Section 1.2: initial PG weakly connected per component (here: one
	// component), all references belong to live processes.
	for topo := TopoLine; topo <= TopoRandom; topo++ {
		s := Build(Config{N: 8, Topology: topo, LeaveFraction: 0.5,
			Pattern: LeaveRandom, Seed: int64(topo),
			Corrupt: Corruption{JunkMessages: 10}})
		if !s.World.PG().WeaklyConnected() {
			t.Fatalf("%v: initial PG not weakly connected", topo)
		}
		if got := len(s.World.InitialComponents()); got != 1 {
			t.Fatalf("%v: components = %d", topo, got)
		}
	}
}

func TestTopologyAndPatternNames(t *testing.T) {
	names := []string{}
	for topo := TopoLine; topo <= TopoRandom; topo++ {
		names = append(names, topo.String())
	}
	want := []string{"line", "directed-line", "ring", "star", "tree", "clique", "hypercube", "random"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("topology name %d = %q, want %q", i, names[i], want[i])
		}
	}
	if LeaveRandom.String() != "random" || LeaveArticulation.String() != "articulation" ||
		LeaveBlock.String() != "block" || LeaveAllButOne.String() != "all-but-one" {
		t.Fatal("pattern names wrong")
	}
}

// Every topology × n∈{1,2,3,5} must either build a valid connected scenario
// or fail with the typed *BuildError — never panic, never hand back a
// disconnected or partial graph. (Found by the small-n fuzz sweep: the
// hypercube silently degenerated off powers of two, and TryBuild previously
// did not exist so nonsense configs panicked deep inside generators.)
func TestSmallNTopologyTable(t *testing.T) {
	for _, topo := range Topologies() {
		for _, n := range []int{1, 2, 3, 5} {
			for seed := int64(0); seed < 3; seed++ {
				s, err := TryBuild(Config{N: n, Topology: topo, LeaveFraction: 0.5,
					Pattern: LeaveRandom, Seed: seed})
				if err != nil {
					var be *BuildError
					if !errors.As(err, &be) {
						t.Fatalf("%v n=%d: error is %T (%v), want *BuildError", topo, n, err, err)
					}
					if topo != TopoHypercube || n&(n-1) == 0 {
						t.Fatalf("%v n=%d: unexpected build error %v", topo, n, err)
					}
					continue
				}
				if topo == TopoHypercube && n&(n-1) != 0 {
					t.Fatalf("hypercube n=%d: want *BuildError, built fine", n)
				}
				if got := s.Initial.NumNodes(); got != n {
					t.Fatalf("%v n=%d: initial graph has %d nodes", topo, n, got)
				}
				if !s.Initial.WeaklyConnected() {
					t.Fatalf("%v n=%d seed=%d: initial graph disconnected:\n%s", topo, n, seed, s.Initial.String())
				}
				if len(s.StayingNodes()) < 1 {
					t.Fatalf("%v n=%d: no staying process", topo, n)
				}
			}
		}
	}
}

func TestExplicitLeaverIndices(t *testing.T) {
	s, err := TryBuild(Config{N: 6, Topology: TopoRing, Seed: 1,
		LeaverIndices: []int{0, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 4} {
		if !s.Leaving.Has(s.Nodes[i]) {
			t.Fatalf("node %d not leaving", i)
		}
	}
	if got := s.LeaverIndexes(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("LeaverIndexes = %v", got)
	}
	// All nodes leaving violates the one-staying-per-component invariant.
	if _, err := TryBuild(Config{N: 3, Topology: TopoRing, Seed: 1,
		LeaverIndices: []int{0, 1, 2}}); err == nil {
		t.Fatal("want invariant violation error")
	}
	// Out-of-range index is a typed config error.
	if _, err := TryBuild(Config{N: 3, Topology: TopoRing, Seed: 1,
		LeaverIndices: []int{7}}); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestBuildZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=0 must panic")
		}
	}()
	Build(Config{N: 0})
}

func TestBuildMultiComponent(t *testing.T) {
	s := Build(Config{N: 12, Topology: TopoRing, LeaveFraction: 0.5,
		Pattern: LeaveRandom, Components: 3, Seed: 8})
	if got := len(s.World.InitialComponents()); got != 3 {
		t.Fatalf("components = %d, want 3", got)
	}
	// Each component keeps at least one staying process.
	for _, comp := range s.World.InitialComponents() {
		staying := 0
		for _, r := range comp {
			if !s.Leaving.Has(r) {
				staying++
			}
		}
		if staying == 0 {
			t.Fatal("component with no staying process")
		}
	}
}

func TestBuildMultiComponentConverges(t *testing.T) {
	s := Build(Config{N: 12, Topology: TopoLine, LeaveFraction: 0.4,
		Pattern: LeaveRandom, Components: 2, Seed: 9,
		Corrupt: Corruption{FlipBeliefs: 0.4, JunkMessages: 6},
		Oracle:  oracle.Single{}})
	res := sim.Run(s.World, sim.NewRandomScheduler(9, 256), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 400000, CheckSafety: true,
	})
	if res.SafetyViolation != nil || !res.Converged {
		t.Fatalf("multi-component run failed: %+v", res)
	}
	// Components must not have merged: per initial component, staying
	// processes connected within it and no cross-component path.
	comps := s.World.InitialComponents()
	pg := s.World.PG()
	for _, a := range comps[0] {
		if s.World.LifeOf(a) == sim.Gone {
			continue
		}
		for _, b := range comps[1] {
			if s.World.LifeOf(b) == sim.Gone {
				continue
			}
			if pg.SameWeakComponent(a, b) {
				t.Fatal("components merged")
			}
		}
	}
}

// BenchmarkBuild prices building and sealing rt_churn's scenario (n =
// 10000, random topology, half of the processes leave), the churn.build layer
// of every run's setup.
func BenchmarkBuild(b *testing.B) {
	cfg := Config{N: 10000, Topology: TopoRandom, LeaveFraction: 0.5,
		Pattern: LeaveRandom, Oracle: oracle.Single{}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchScenario = Build(cfg)
	}
}

var benchScenario *Scenario
