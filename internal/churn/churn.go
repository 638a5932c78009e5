// Package churn builds simulation scenarios: an initial topology, a choice
// of leaving processes, and optional corruption of the initial state
// (invalid mode beliefs, stale anchors, junk in-flight messages) — the
// "arbitrary initial states" the self-stabilizing protocol must recover
// from. A scenario seats either process type on the same construction: the
// departure protocol's core.Proc, or, with an Overlay, the framework P′
// around an overlay-maintenance protocol P.
//
// The builder enforces the paper's constraints on initial states (Section
// 1.2 and the Section 1.5 note): every process is relevant, only finitely
// many action-triggering messages exist, every reference belongs to a live
// process, and at least one staying process exists per weakly connected
// component.
//
//fdp:decomposable
package churn

import (
	"fmt"
	"math/rand"

	"fdp/internal/core"
	"fdp/internal/graph"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Topology selects the initial overlay shape.
type Topology uint8

// Topology kinds.
const (
	TopoLine Topology = iota
	TopoDirectedLine
	TopoRing
	TopoStar
	TopoTree
	TopoClique
	TopoHypercube
	TopoRandom
	TopoSkipGraph
	TopoDeBruijn
	TopoRandomRegular
)

// Topologies lists every topology kind, in declaration order. Name lookups
// and the fuzzer's generator iterate it instead of hard-coding the enum
// bounds.
func Topologies() []Topology {
	return []Topology{
		TopoLine, TopoDirectedLine, TopoRing, TopoStar, TopoTree,
		TopoClique, TopoHypercube, TopoRandom, TopoSkipGraph,
		TopoDeBruijn, TopoRandomRegular,
	}
}

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopoLine:
		return "line"
	case TopoDirectedLine:
		return "directed-line"
	case TopoRing:
		return "ring"
	case TopoStar:
		return "star"
	case TopoTree:
		return "tree"
	case TopoClique:
		return "clique"
	case TopoHypercube:
		return "hypercube"
	case TopoSkipGraph:
		return "skip-graph"
	case TopoDeBruijn:
		return "de-bruijn"
	case TopoRandomRegular:
		return "random-regular"
	default:
		return "random"
	}
}

// BuildError is the typed error Topology.Build returns when a topology
// cannot be realized on the given node count — a hypercube on a non-power-
// of-two, or any topology on zero nodes. Scenario builders surface it
// instead of panicking or silently degenerating.
type BuildError struct {
	Topology Topology
	N        int
	Reason   string
}

// Error implements error.
func (e *BuildError) Error() string {
	return fmt.Sprintf("churn: cannot build %s topology on %d node(s): %s", e.Topology, e.N, e.Reason)
}

// Build constructs the initial graph for a topology. The result is always a
// valid weakly connected graph over exactly the given nodes; node counts the
// topology cannot host yield a *BuildError instead.
func (t Topology) Build(nodes []ref.Ref, rng *rand.Rand) (*graph.Graph, error) {
	n := len(nodes)
	if n < 1 {
		return nil, &BuildError{Topology: t, N: n, Reason: "need at least one node"}
	}
	var g *graph.Graph
	switch t {
	case TopoLine:
		g = graph.Line(nodes)
	case TopoDirectedLine:
		g = graph.DirectedLine(nodes)
	case TopoRing:
		g = graph.Ring(nodes)
	case TopoStar:
		g = graph.Star(nodes)
	case TopoTree:
		g = graph.BinaryTree(nodes)
	case TopoClique:
		g = graph.Clique(nodes)
	case TopoHypercube:
		if n&(n-1) != 0 {
			return nil, &BuildError{Topology: t, N: n, Reason: "hypercube needs a power-of-two node count"}
		}
		g = graph.Hypercube(nodes)
	case TopoSkipGraph:
		g = graph.SkipGraph(nodes)
	case TopoDeBruijn:
		g = graph.DeBruijn(nodes)
	case TopoRandomRegular:
		g = graph.RandomRegular(nodes, 3, rng)
	default:
		g = graph.RandomConnected(nodes, n/2, rng)
	}
	// Every generator is connected by construction; verify anyway so a
	// future generator bug surfaces here as a typed error, not as a spurious
	// Lemma 2 violation deep inside a run.
	if g.NumNodes() != n || !g.WeaklyConnected() {
		return nil, &BuildError{Topology: t, N: n, Reason: "generator produced a disconnected graph"}
	}
	return g, nil
}

// LeavePattern selects which processes want to leave.
type LeavePattern uint8

// Leave patterns.
const (
	// LeaveRandom picks a uniform random subset of the requested size.
	LeaveRandom LeavePattern = iota
	// LeaveArticulation prefers articulation points — the adversarial
	// placement, since those are exactly the processes whose naive removal
	// disconnects the overlay.
	LeaveArticulation
	// LeaveBlock picks a contiguous block of the node list (burst churn in
	// one region).
	LeaveBlock
	// LeaveAllButOne marks every process but one as leaving — the extreme
	// case still permitted by the one-staying-process-per-component rule.
	LeaveAllButOne
	// LeaveNeighborhood marks all but one member of one process's closed
	// undirected neighborhood as leaving: the targeted burst that leaves a
	// single survivor responsible for re-stitching the hole around it.
	// LeaveFraction is ignored.
	LeaveNeighborhood
)

// Patterns lists every leave pattern, in declaration order.
func Patterns() []LeavePattern {
	return []LeavePattern{
		LeaveRandom, LeaveArticulation, LeaveBlock, LeaveAllButOne,
		LeaveNeighborhood,
	}
}

// String names the pattern.
func (p LeavePattern) String() string {
	switch p {
	case LeaveRandom:
		return "random"
	case LeaveArticulation:
		return "articulation"
	case LeaveBlock:
		return "block"
	case LeaveNeighborhood:
		return "neighborhood"
	default:
		return "all-but-one"
	}
}

// Corruption configures how far the initial state deviates from a valid
// one. Zero value = clean start.
type Corruption struct {
	// FlipBeliefs is the probability that each stored mode belief is
	// flipped to the wrong value.
	FlipBeliefs float64
	// RandomAnchors is the probability that each process starts with a
	// random anchor (staying processes should have none; leaving processes
	// may get one pointing at a leaving process — both invalid).
	RandomAnchors float64
	// JunkMessages injects this many random present/forward messages with
	// random references and random (often wrong) mode claims.
	JunkMessages int
	// JunkPending injects this many saved messages of P, each with random
	// (often wrong) pre-"verified" modes, into random P′ processes. It needs
	// an Overlay.
	JunkPending int
}

// Process is what TryBuild seats on a node, seeds with the topology's edges
// and corrupts: the departure protocol's *core.Proc, or P′'s
// *framework.Wrapper.
type Process interface {
	sim.Protocol
	// SetNeighbor stores v, an edge of the initial topology, believed to be
	// in the given mode.
	SetNeighbor(v ref.Ref, belief sim.Mode)
	// SetAnchor sets the anchor variable.
	SetAnchor(v ref.Ref, belief sim.Mode)
}

// pendingHolder is a process that saves P's messages until their
// references' modes are verified, which JunkPending corrupts.
type pendingHolder interface {
	InjectPending(to ref.Ref, label string, refs []ref.Ref, modes map[ref.Ref]sim.Mode)
}

// Overlay is the overlay-maintenance protocol P that the framework P′ wraps
// (internal/framework implements it). Like an Oracle, it is a value that
// names itself: a journal header records String, and replay resolves the
// name back.
type Overlay interface {
	fmt.Stringer
	// Processes returns one P′ process per node, in node order.
	Processes(nodes []ref.Ref, variant core.Variant) []Process
}

// Config describes a scenario.
type Config struct {
	N             int
	Topology      Topology
	LeaveFraction float64 // fraction of processes leaving (capped so each component keeps one staying process)
	Pattern       LeavePattern
	Corrupt       Corruption
	Variant       core.Variant
	Oracle        sim.Oracle
	Seed          int64
	// Components splits the N processes into this many disjoint overlay
	// components (0/1 = a single component). Legitimacy condition (iii) is
	// per initial component, and the protocol must neither merge nor
	// disconnect them.
	Components int
	// LeaverIndices, when non-empty, names the leaving processes explicitly
	// by node index and overrides Pattern/LeaveFraction entirely (no rng
	// draws are consumed picking leavers). The fuzzer's shrinker uses it to
	// drop leavers one at a time from a failing scenario while keeping the
	// rest of the construction identical; journals serialize it so shrunk
	// scenarios stay replayable.
	LeaverIndices []int
	// Overlay, when non-nil, is the P that every process runs inside P′;
	// nil seats the bare departure protocol.
	Overlay Overlay
}

// Scenario is a built world ready to run.
type Scenario struct {
	Config  Config
	Space   *ref.Space
	Nodes   []ref.Ref
	World   *sim.World
	Procs   []Process // Procs[i] runs on Nodes[i]
	Leaving ref.Set
	Initial *graph.Graph
	// parts is the component partition; corruption stays within a part so
	// components are never accidentally merged.
	parts [][]ref.Ref
	// staying is what StayingNodes hands out.
	staying []ref.Ref
}

// partOf returns the component slice containing the node r. Parts are
// consecutive runs of nodes, all as long as the first but the last.
func (s *Scenario) partOf(r ref.Ref) []ref.Ref {
	return s.parts[min(ref.Index(r)/len(s.parts[0]), len(s.parts)-1)]
}

// Build constructs the scenario. It panics on invalid configs (N < 1, a
// topology that cannot host its component size, an explicit leaver set that
// violates the builder invariant); callers that handle arbitrary configs —
// the fuzzer, journal replay — use TryBuild instead.
func Build(cfg Config) *Scenario {
	s, err := TryBuild(cfg)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// ConfigError is the typed error TryBuild returns for invalid scenario
// configurations that are not topology build failures.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("churn: invalid config %s: %s", e.Field, e.Reason)
}

// TryBuild constructs the scenario, returning a typed error (*BuildError or
// *ConfigError) for configurations that cannot produce a valid initial
// state: N < 1, a topology undefined at the component size, out-of-range
// explicit leaver indices, a leaver set that strips some weak component
// of its last staying process (the Section 1.5 invariant), or a corruption
// the seated process type cannot hold.
//
//fdp:primitive init
func TryBuild(cfg Config) (*Scenario, error) {
	if cfg.N < 1 {
		return nil, &ConfigError{Field: "N", Reason: fmt.Sprintf("N = %d", cfg.N)}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := ref.NewSpace()
	nodes := space.NewN(cfg.N)

	comps := cfg.Components
	if comps < 1 {
		comps = 1
	}
	if comps > cfg.N {
		comps = cfg.N
	}
	// Build each component's topology separately and take the union (of one
	// graph: itself), then pick leavers per component (so every component
	// keeps one staying process, the Section 1.5 requirement). Node i of a
	// fresh Space has reference index i: mode is every node's, by index.
	var g *graph.Graph
	mode := make([]sim.Mode, cfg.N)
	var parts [][]ref.Ref
	per := cfg.N / comps
	for c := 0; c < comps; c++ {
		lo := c * per
		hi := lo + per
		if c == comps-1 {
			hi = cfg.N
		}
		part := nodes[lo:hi]
		parts = append(parts, part)
		sub, err := cfg.Topology.Build(part, rng)
		if err != nil {
			return nil, err
		}
		if comps == 1 {
			g = sub
		} else {
			if g == nil {
				g = graph.New()
			}
			for _, a := range part {
				g.AddNode(a)
				sub.EachOut(a, func(b ref.Ref, explicit, implicit int) {
					for ; explicit > 0; explicit-- {
						g.AddEdge(a, b, graph.Explicit)
					}
					for ; implicit > 0; implicit-- {
						g.AddEdge(a, b, graph.Implicit)
					}
				})
			}
		}
		if len(cfg.LeaverIndices) == 0 {
			pickLeavers(sub, part, cfg, rng, mode)
		}
	}
	for _, i := range cfg.LeaverIndices {
		if i < 0 || i >= cfg.N {
			return nil, &ConfigError{Field: "LeaverIndices",
				Reason: fmt.Sprintf("index %d out of range [0,%d)", i, cfg.N)}
		}
		mode[i] = sim.Leaving
	}
	leavers := 0
	for _, m := range mode {
		if m == sim.Leaving {
			leavers++
		}
	}
	leaving := make(ref.Set, leavers)
	staying := make([]ref.Ref, 0, cfg.N-leavers)
	for i, r := range nodes {
		if mode[i] == sim.Leaving {
			leaving.Add(r)
		} else {
			staying = append(staying, r)
		}
	}
	// Builder invariant: every weakly connected component keeps at least one
	// staying process, so the staying processes reach every node.
	// Pattern-based picking guarantees it per part; an explicit leaver set
	// must be validated.
	if !g.ReachesAll(staying...) {
		return nil, &ConfigError{Field: "LeaverIndices",
			Reason: "a weak component has no staying process"}
	}

	var procs []Process
	if cfg.Overlay != nil {
		procs = cfg.Overlay.Processes(nodes, cfg.Variant)
	} else {
		slab := core.NewN(cfg.Variant, cfg.N)
		procs = make([]Process, cfg.N)
		for i := range procs {
			procs[i] = &slab[i]
		}
	}
	// A corruption the seated type cannot hold is refused, not skipped.
	if _, ok := procs[0].(*core.Proc); cfg.Corrupt.FlipBeliefs > 0 && !ok {
		return nil, &ConfigError{Field: "Corrupt.FlipBeliefs", Reason: fmt.Sprintf("%T stores no neighbour beliefs", procs[0])}
	}
	if _, ok := procs[0].(pendingHolder); cfg.Corrupt.JunkPending > 0 && !ok {
		return nil, &ConfigError{Field: "Corrupt.JunkPending", Reason: fmt.Sprintf("%T saves no messages (JunkPending needs an Overlay)", procs[0])}
	}
	w := sim.NewWorld(cfg.Oracle)
	for i, r := range nodes {
		w.AddProcess(r, mode[i], procs[i])
	}

	// Install every edge of the topology, each copy, with its (initially
	// valid) belief.
	for i, a := range nodes {
		p := procs[i]
		g.EachOut(a, func(b ref.Ref, explicit, implicit int) {
			for k := explicit + implicit; k > 0; k-- {
				p.SetNeighbor(b, mode[ref.Index(b)])
			}
		})
	}

	s := &Scenario{
		Config: cfg, Space: space, Nodes: nodes, World: w,
		Procs: procs, Leaving: leaving, Initial: g, parts: parts, staying: staying,
	}
	s.corrupt(rng)
	w.SealInitialState()
	return s, nil
}

// InTarget reports whether the staying processes have reached the Overlay's
// target topology among themselves in w: s.World, a clone of it, or a
// runtime's frozen snapshot. Without an Overlay there is no target, and it
// holds.
func (s *Scenario) InTarget(w *sim.World) bool {
	if s.Config.Overlay == nil {
		return true
	}
	return overlay.CheckTarget(w, s.StayingNodes())
}

// LeaverIndexes returns the node indices of the leaving processes in
// ascending order — the explicit-leaver image of this scenario's choice,
// usable as Config.LeaverIndices to pin (and then shrink) the leaver set.
func (s *Scenario) LeaverIndexes() []int {
	var out []int
	for i, r := range s.Nodes {
		if s.Leaving.Has(r) {
			out = append(out, i)
		}
	}
	return out
}

// pickLeavers marks the leavers cfg's pattern picks among nodes, one
// component with the graph g, in mode (indexed by reference index).
func pickLeavers(g *graph.Graph, nodes []ref.Ref, cfg Config, rng *rand.Rand, mode []sim.Mode) {
	n := len(nodes)
	k := int(cfg.LeaveFraction*float64(n) + 0.5)
	if cfg.Pattern == LeaveAllButOne {
		k = n - 1
	}
	if k > n-1 {
		k = n - 1 // at least one staying process per (connected) component
	}
	if k < 0 {
		k = 0
	}
	picked := 0
	leave := func(r ref.Ref) {
		if m := &mode[ref.Index(r)]; *m != sim.Leaving {
			*m = sim.Leaving
			picked++
		}
	}
	switch cfg.Pattern {
	case LeaveArticulation:
		for _, a := range g.ArticulationPoints() {
			if picked >= k {
				break
			}
			leave(a)
		}
		for _, i := range rng.Perm(n) {
			if picked >= k {
				break
			}
			leave(nodes[i])
		}
	case LeaveBlock:
		start := 0
		if n > k {
			start = rng.Intn(n - k)
		}
		for i := start; i < start+k; i++ {
			leave(nodes[i])
		}
	case LeaveAllButOne:
		keep := rng.Intn(n)
		for i, r := range nodes {
			if i != keep {
				leave(r)
			}
		}
	case LeaveNeighborhood:
		// The closed undirected neighborhood of one random process leaves,
		// except for one random member kept staying. The component invariant
		// holds: the kept member stays, and so does every process outside the
		// neighborhood.
		center := nodes[rng.Intn(n)]
		nbhd := append([]ref.Ref{center}, g.UndirectedNeighbors(center)...)
		ref.Sort(nbhd)
		keep := nbhd[rng.Intn(len(nbhd))]
		for _, r := range nbhd {
			if r != keep {
				leave(r)
			}
		}
	default: // LeaveRandom
		for _, i := range rng.Perm(n)[:k] {
			leave(nodes[i])
		}
	}
}

// corrupt applies the configured initial-state corruption.
func (s *Scenario) corrupt(rng *rand.Rand) {
	c := s.Config.Corrupt
	flip := func(m sim.Mode) sim.Mode {
		if m == sim.Staying {
			return sim.Leaving
		}
		return sim.Staying
	}
	for i, r := range s.Nodes {
		p := s.Procs[i]
		if c.FlipBeliefs > 0 {
			for _, b := range p.(*core.Proc).NeighborBeliefs() { // reference order
				if rng.Float64() < c.FlipBeliefs {
					p.SetNeighbor(b.Ref, flip(b.Mode))
				}
			}
		}
		if c.RandomAnchors > 0 && rng.Float64() < c.RandomAnchors {
			part := s.partOf(r)
			a := part[rng.Intn(len(part))]
			if a != r {
				// A random belief, frequently wrong.
				belief := sim.Staying
				if rng.Intn(2) == 0 {
					belief = sim.Leaving
				}
				p.SetAnchor(a, belief)
			}
		}
	}
	for i := 0; i < c.JunkMessages; i++ {
		to := s.Nodes[rng.Intn(len(s.Nodes))]
		part := s.partOf(to)
		carried := part[rng.Intn(len(part))]
		claim := sim.Staying
		if rng.Intn(2) == 0 {
			claim = sim.Leaving
		}
		label := core.LabelPresent
		if rng.Intn(2) == 0 {
			label = core.LabelForward
		}
		s.World.Enqueue(to, sim.NewMessage(label, sim.RefInfo{Ref: carried, Mode: claim}))
	}
	for i := 0; i < c.JunkPending; i++ {
		owner := rng.Intn(len(s.Nodes))
		part := s.partOf(s.Nodes[owner])
		to := part[rng.Intn(len(part))]
		carried := part[rng.Intn(len(part))]
		modes := map[ref.Ref]sim.Mode{}
		for _, r := range []ref.Ref{to, carried} {
			switch rng.Intn(3) { // the third draw leaves r unknown
			case 0:
				modes[r] = sim.Staying
			case 1:
				modes[r] = sim.Leaving
			}
		}
		s.Procs[owner].(pendingHolder).InjectPending(to, overlay.LabelLink, []ref.Ref{carried}, modes)
	}
}

// StayingNodes returns the staying processes in node order. The slice is
// shared: callers must not write it.
func (s *Scenario) StayingNodes() []ref.Ref { return s.staying }

// LeavingNodes returns the leaving processes in deterministic order.
func (s *Scenario) LeavingNodes() []ref.Ref {
	var out []ref.Ref
	for _, r := range s.Nodes {
		if s.Leaving.Has(r) {
			out = append(out, r)
		}
	}
	return out
}
