package framework

import (
	"fmt"
	"math/rand"

	"fdp/internal/core"
	"fdp/internal/graph"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// OverlayKind selects the wrapped protocol P.
type OverlayKind uint8

// Overlay kinds.
const (
	OverlayLinearize OverlayKind = iota
	OverlayRing
	OverlayClique
	OverlaySkip
)

// String names the overlay kind.
func (k OverlayKind) String() string {
	switch k {
	case OverlayLinearize:
		return "linearize"
	case OverlayRing:
		return "sortring"
	case OverlaySkip:
		return "skiplist"
	default:
		return "clique"
	}
}

// Config describes a P′ scenario: an initial topology (possibly far from
// P's target), a set of leaving processes, and optional corruption.
type Config struct {
	N             int
	Overlay       OverlayKind
	LeaveFraction float64
	Variant       core.Variant
	Oracle        sim.Oracle
	Seed          int64
	// ExtraEdges adds random edges beyond the random spanning tree of the
	// initial topology.
	ExtraEdges int
	// CorruptAnchors gives each process a random anchor with probability p.
	CorruptAnchors float64
	// JunkPending injects this many corrupted mlist entries (with random,
	// often wrong, verified modes) into random staying processes.
	JunkPending int
	// MakeOverlay, if non-nil, overrides Overlay with a custom factory
	// (e.g. the routed list of internal/app). The produced protocol must
	// accept AddNeighbor seeding.
	MakeOverlay func(keys overlay.Keys) overlay.Protocol
}

// Scenario is a built P′ world.
type Scenario struct {
	Config   Config
	Nodes    []ref.Ref
	Keys     overlay.Keys
	World    *sim.World
	Wrappers map[ref.Ref]*Wrapper
	Leaving  ref.Set
}

// Build constructs the scenario: a random weakly connected initial graph
// whose edges seed P's neighborhoods, random leavers (at least one staying
// process), and the requested corruption.
//
//fdp:primitive init
func Build(cfg Config) *Scenario {
	if cfg.N < 1 {
		panic(fmt.Sprintf("framework: N = %d", cfg.N))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	//fdplint:ignore refopacity scenario construction — Build mints the scenario's refs; the wrapper protocol only receives them
	space := ref.NewSpace()
	nodes := space.NewN(cfg.N)
	keys := make(overlay.Keys, cfg.N)
	for i, r := range nodes {
		keys[r] = i
	}
	g := graph.RandomConnected(nodes, cfg.ExtraEdges, rng)

	k := int(cfg.LeaveFraction*float64(cfg.N) + 0.5)
	if k > cfg.N-1 {
		k = cfg.N - 1
	}
	leaving := ref.NewSet()
	for _, i := range rng.Perm(cfg.N)[:k] {
		leaving.Add(nodes[i])
	}

	w := sim.NewWorld(cfg.Oracle)
	wrappers := make(map[ref.Ref]*Wrapper, cfg.N)
	mkOverlay := func() overlay.Protocol {
		if cfg.MakeOverlay != nil {
			return cfg.MakeOverlay(keys)
		}
		switch cfg.Overlay {
		case OverlayLinearize:
			return overlay.NewLinearize(keys)
		case OverlayRing:
			return overlay.NewSortRing(keys)
		case OverlaySkip:
			return overlay.NewSkipList(keys)
		default:
			return overlay.NewCliqueTC()
		}
	}
	type seeder interface{ AddNeighbor(ref.Ref) }
	for _, r := range nodes {
		wr := New(mkOverlay(), cfg.Variant)
		wrappers[r] = wr
		mode := sim.Staying
		if leaving.Has(r) {
			mode = sim.Leaving
		}
		w.AddProcess(r, mode, wr)
	}
	for _, e := range g.Edges() {
		wrappers[e.From].Overlay().(seeder).AddNeighbor(e.To)
	}

	// Corruption.
	for _, r := range nodes {
		if cfg.CorruptAnchors > 0 && rng.Float64() < cfg.CorruptAnchors {
			a := nodes[rng.Intn(cfg.N)]
			if a != r {
				belief := sim.Staying
				if rng.Intn(2) == 0 {
					belief = sim.Leaving
				}
				wrappers[r].SetAnchor(a, belief)
			}
		}
	}
	for i := 0; i < cfg.JunkPending; i++ {
		owner := nodes[rng.Intn(cfg.N)]
		to := nodes[rng.Intn(cfg.N)]
		carried := nodes[rng.Intn(cfg.N)]
		modes := map[ref.Ref]sim.Mode{}
		// Random pre-"verified" modes, frequently wrong.
		for _, r := range []ref.Ref{to, carried} {
			switch rng.Intn(3) {
			case 0:
				modes[r] = sim.Staying
			case 1:
				modes[r] = sim.Leaving
			}
		}
		wrappers[owner].InjectPending(to, overlay.LabelLink, []ref.Ref{carried}, modes)
	}

	w.SealInitialState()
	return &Scenario{
		Config: cfg, Nodes: nodes, Keys: keys, World: w,
		Wrappers: wrappers, Leaving: leaving,
	}
}

// StayingNodes returns the staying processes in deterministic order.
func (s *Scenario) StayingNodes() []ref.Ref {
	var out []ref.Ref
	for _, r := range s.Nodes {
		if !s.Leaving.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// InTarget reports whether the staying processes have reached P's target
// topology among themselves.
func (s *Scenario) InTarget() bool {
	return overlay.CheckTarget(s.World, s.StayingNodes())
}
