package framework

import (
	"fmt"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// OverlayKind selects one of the overlay protocols of internal/overlay as the
// wrapped P. It is a churn.Overlay: a churn.Config with it builds P′ worlds.
type OverlayKind uint8

// Overlay kinds.
const (
	OverlayLinearize OverlayKind = iota
	OverlayRing
	OverlayClique
	OverlaySkip
)

// kinds names and makes each OverlayKind, indexed by kind.
var kinds = [...]struct {
	name string
	make Factory
}{
	OverlayLinearize: {"linearize", func(keys overlay.Keys) overlay.Protocol { return overlay.NewLinearize(keys) }},
	OverlayRing:      {"sortring", func(keys overlay.Keys) overlay.Protocol { return overlay.NewSortRing(keys) }},
	OverlayClique:    {"clique", func(overlay.Keys) overlay.Protocol { return overlay.NewCliqueTC() }},
	OverlaySkip:      {"skiplist", func(keys overlay.Keys) overlay.Protocol { return overlay.NewSkipList(keys) }},
}

// Overlays lists every overlay kind, in declaration order. Names resolve
// through it (churn.ByName("overlay", name, Overlays())).
func Overlays() []OverlayKind {
	return []OverlayKind{OverlayLinearize, OverlayRing, OverlayClique, OverlaySkip}
}

// String names the overlay kind; a value outside Overlays names no overlay.
func (k OverlayKind) String() string {
	if int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("OverlayKind(%d)", uint8(k))
}

// Processes implements churn.Overlay. It panics on a kind outside Overlays.
func (k OverlayKind) Processes(nodes []ref.Ref, variant core.Variant) []churn.Process {
	return kinds[k].make.Processes(nodes, variant)
}

// Factory is a P given by its constructor, such as app.NewRoutedList. The
// produced protocol must accept AddNeighbor seeding. A journal records it as
// "custom", a name replay refuses: only the code that made it can rebuild it.
type Factory func(keys overlay.Keys) overlay.Protocol

// String implements churn.Overlay.
func (Factory) String() string { return "custom" }

// Processes implements churn.Overlay: one wrapper per node around its own
// instance of P, with node i's key i.
//
//fdp:primitive init
func (f Factory) Processes(nodes []ref.Ref, variant core.Variant) []churn.Process {
	keys := keysOf(nodes)
	out := make([]churn.Process, len(nodes))
	for i := range nodes {
		out[i] = New(f(keys), variant)
	}
	return out
}

// keysOf keys each node by its index.
func keysOf(nodes []ref.Ref) overlay.Keys {
	keys := make(overlay.Keys, len(nodes))
	for i, r := range nodes {
		keys[r] = i
	}
	return keys
}

// Config is the P′ scenario overlay_lookup builds: a random connected graph
// with N/2 extra edges, random leavers and no corruption. Every other P′
// scenario is a churn.Config with an Overlay.
type Config struct {
	N             int
	LeaveFraction float64
	Variant       core.Variant
	Oracle        sim.Oracle
	Seed          int64
	// ExtraEdges must be N/2, the extra edges of churn.TopoRandom.
	ExtraEdges int
	// MakeOverlay makes P; nil selects the sorted list.
	MakeOverlay Factory
}

// Scenario is a built P′ world: the churn scenario, with each process's
// wrapper and P's key of each node.
type Scenario struct {
	*churn.Scenario
	Keys     overlay.Keys
	Wrappers map[ref.Ref]*Wrapper
}

// Build builds cfg through churn.Build. It panics where churn.Build does, and
// on ExtraEdges ≠ N/2.
func Build(cfg Config) *Scenario {
	if cfg.ExtraEdges != cfg.N/2 {
		panic(fmt.Sprintf("framework: ExtraEdges = %d, want N/2 = %d", cfg.ExtraEdges, cfg.N/2))
	}
	var p churn.Overlay = OverlayLinearize
	if cfg.MakeOverlay != nil {
		p = cfg.MakeOverlay
	}
	return Of(churn.Build(churn.Config{
		N: cfg.N, Topology: churn.TopoRandom, LeaveFraction: cfg.LeaveFraction,
		Variant: cfg.Variant, Oracle: cfg.Oracle, Seed: cfg.Seed, Overlay: p,
	}))
}

// Of views a churn scenario built with an Overlay as a P′ scenario.
//
//fdp:primitive init
func Of(s *churn.Scenario) *Scenario {
	sc := &Scenario{Scenario: s, Keys: keysOf(s.Nodes), Wrappers: make(map[ref.Ref]*Wrapper, len(s.Nodes))}
	for i, r := range s.Nodes {
		sc.Wrappers[r] = s.Procs[i].(*Wrapper)
	}
	return sc
}

// InTarget reports whether the staying processes have reached P's target
// topology in the scenario's world.
func (s *Scenario) InTarget() bool { return s.Scenario.InTarget(s.World) }
