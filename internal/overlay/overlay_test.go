package overlay

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fdp/internal/graph"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// buildWorld installs one Standalone overlay process per node with edges of
// g as the initial neighborhoods, everyone staying.
func buildWorld(g *graph.Graph, mk func(r ref.Ref) Protocol) (*sim.World, []ref.Ref) {
	nodes := g.Nodes()
	w := sim.NewWorld(nil)
	protos := make(map[ref.Ref]Protocol, len(nodes))
	for _, r := range nodes {
		p := mk(r)
		protos[r] = p
		w.AddProcess(r, sim.Staying, &Standalone{P: p})
	}
	type seeder interface{ AddNeighbor(ref.Ref) }
	for _, e := range g.Edges() {
		protos[e.From].(seeder).AddNeighbor(e.To)
	}
	w.SealInitialState()
	return w, nodes
}

// runToTarget drives the world until the overlay target topology is reached.
func runToTarget(t *testing.T, w *sim.World, nodes []ref.Ref, sched sim.Scheduler, maxSteps int) int {
	t.Helper()
	check := len(nodes)
	for w.Steps() < maxSteps {
		if w.Steps()%check == 0 && CheckTarget(w, nodes) {
			return w.Steps()
		}
		a, ok := sched.Next(w)
		if !ok {
			break
		}
		w.Execute(a)
		if !w.PG().WeaklyConnected() {
			t.Fatalf("overlay protocol disconnected PG at step %d", w.Steps())
		}
	}
	if CheckTarget(w, nodes) {
		return w.Steps()
	}
	t.Fatalf("target not reached in %d steps", w.Steps())
	return 0
}

func mkKeys(nodes []ref.Ref) Keys {
	k := make(Keys, len(nodes))
	for i, r := range nodes {
		k[r] = i
	}
	return k
}

func TestKeysOrdering(t *testing.T) {
	nodes := ref.NewSpace().NewN(5)
	k := mkKeys(nodes)
	if !k.Less(nodes[0], nodes[4]) || k.Less(nodes[3], nodes[1]) {
		t.Fatal("Less wrong")
	}
	shuffled := []ref.Ref{nodes[4], nodes[0], nodes[2]}
	k.SortAsc(shuffled)
	if shuffled[0] != nodes[0] || shuffled[2] != nodes[4] {
		t.Fatal("SortAsc wrong")
	}
}

func TestLinearizeSides(t *testing.T) {
	nodes := ref.NewSpace().NewN(5)
	k := mkKeys(nodes)
	l := NewLinearize(k)
	l.AddNeighbor(nodes[0])
	l.AddNeighbor(nodes[1])
	l.AddNeighbor(nodes[3])
	l.AddNeighbor(nodes[4])
	left, right := l.sides(nodes[2])
	if len(left) != 2 || left[0] != nodes[1] || left[1] != nodes[0] {
		t.Fatalf("left = %v (want closest first)", left)
	}
	if len(right) != 2 || right[0] != nodes[3] || right[1] != nodes[4] {
		t.Fatalf("right = %v", right)
	}
}

func TestLinearizeConvergesFromRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(12)
		nodes := ref.NewSpace().NewN(n)
		g := graph.RandomConnected(nodes, rng.Intn(2*n), rng)
		keys := mkKeys(nodes)
		w, members := buildWorld(g, func(ref.Ref) Protocol { return NewLinearize(keys) })
		runToTarget(t, w, members, sim.NewRandomScheduler(int64(trial), 256), 400000)
	}
}

func TestLinearizeConvergesFromLineReversed(t *testing.T) {
	// Worst case for linearization: the line in inverted key order.
	nodes := ref.NewSpace().NewN(10)
	keys := make(Keys, len(nodes))
	for i, r := range nodes {
		keys[r] = len(nodes) - i // inverted
	}
	g := graph.Line(nodes)
	w, members := buildWorld(g, func(ref.Ref) Protocol { return NewLinearize(keys) })
	runToTarget(t, w, members, sim.NewRoundScheduler(), 400000)
}

func TestLinearizeIgnoresJunkAndSelf(t *testing.T) {
	nodes := ref.NewSpace().NewN(2)
	keys := mkKeys(nodes)
	l := NewLinearize(keys)
	ctx := &recCtx{self: nodes[0]}
	l.Deliver(ctx, "bogus", []ref.Ref{nodes[1]}, nil)
	l.Deliver(ctx, LabelLink, []ref.Ref{nodes[0]}, nil) // self
	l.Deliver(ctx, LabelLink, nil, nil)                 // malformed
	if len(l.Refs()) != 0 {
		t.Fatal("junk messages must be ignored")
	}
	l.Reintegrate(ctx, nodes[1])
	l.Reintegrate(ctx, nodes[0])
	if len(l.Refs()) != 1 {
		t.Fatal("reintegrate must add non-self refs only")
	}
}

type recCtx struct {
	self ref.Ref
	sent []struct {
		to    ref.Ref
		label string
		refs  []ref.Ref
	}
}

func (c *recCtx) Self() ref.Ref { return c.self }
func (c *recCtx) Send(to ref.Ref, label string, refs []ref.Ref, payload any) {
	c.sent = append(c.sent, struct {
		to    ref.Ref
		label string
		refs  []ref.Ref
	}{to, label, refs})
}

func TestSortRingConvergesFromRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(9)
		nodes := ref.NewSpace().NewN(n)
		g := graph.RandomConnected(nodes, rng.Intn(n), rng)
		keys := mkKeys(nodes)
		w, members := buildWorld(g, func(ref.Ref) Protocol { return NewSortRing(keys) })
		runToTarget(t, w, members, sim.NewRandomScheduler(int64(trial), 256), 600000)
		// Inspect the wrap edges explicitly.
		minP := w.ProtocolOf(members[0]).(*Standalone).P.(*SortRing)
		maxP := w.ProtocolOf(members[len(members)-1]).(*Standalone).P.(*SortRing)
		if minP.Wrap() != members[len(members)-1] || maxP.Wrap() != members[0] {
			t.Fatal("ring wrap edges wrong")
		}
	}
}

func TestSortRingInteriorDropsStaleWrap(t *testing.T) {
	nodes := ref.NewSpace().NewN(5)
	keys := mkKeys(nodes)
	s := NewSortRing(keys)
	s.AddNeighbor(nodes[1])
	s.AddNeighbor(nodes[3])
	s.setWrap(nodes[2], nodes[4]) // stale wrap at interior node
	ctx := &recCtx{self: nodes[2]}
	s.Timeout(ctx)
	if !s.Wrap().IsNil() {
		t.Fatal("interior node must drop its wrap")
	}
	// The reference is preserved in the ordinary neighborhood or delegated,
	// never deleted outright.
	found := s.lin.n.Has(nodes[4])
	for _, m := range ctx.sent {
		for _, r := range m.refs {
			if r == nodes[4] {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("stale wrap reference was lost")
	}
}

func TestSortRingSeekDelegatedRightwards(t *testing.T) {
	nodes := ref.NewSpace().NewN(4)
	keys := mkKeys(nodes)
	s := NewSortRing(keys)
	s.AddNeighbor(nodes[1])
	s.AddNeighbor(nodes[3])
	ctx := &recCtx{self: nodes[2]}
	s.Deliver(ctx, LabelSeek, []ref.Ref{nodes[0]}, nil)
	if len(ctx.sent) != 1 || ctx.sent[0].to != nodes[3] || ctx.sent[0].label != LabelSeek {
		t.Fatalf("seek must be delegated to the closest right neighbor, got %v", ctx.sent)
	}
	if !s.Wrap().IsNil() {
		t.Fatal("non-maximum must not adopt the seeker")
	}
}

func TestSortRingMaxAnswersSeek(t *testing.T) {
	nodes := ref.NewSpace().NewN(3)
	keys := mkKeys(nodes)
	s := NewSortRing(keys)
	s.AddNeighbor(nodes[1]) // only left neighbors: I am the maximum
	ctx := &recCtx{self: nodes[2]}
	s.Deliver(ctx, LabelSeek, []ref.Ref{nodes[0]}, nil)
	if s.Wrap() != nodes[0] {
		t.Fatal("maximum must adopt the seeker as wrap")
	}
	if len(ctx.sent) != 1 || ctx.sent[0].to != nodes[0] || ctx.sent[0].label != LabelWrap {
		t.Fatal("maximum must answer with owrap")
	}
}

func TestCliqueConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4; trial++ {
		n := 4 + rng.Intn(8)
		nodes := ref.NewSpace().NewN(n)
		g := graph.RandomConnected(nodes, 0, rng)
		w, members := buildWorld(g, func(ref.Ref) Protocol { return NewCliqueTC() })
		runToTarget(t, w, members, sim.NewRandomScheduler(int64(trial), 256), 400000)
	}
}

func TestCliqueLogRounds(t *testing.T) {
	// Under the round scheduler, clique formation from a directed line
	// takes O(log n) rounds.
	for _, n := range []int{4, 8, 16, 32} {
		nodes := ref.NewSpace().NewN(n)
		g := graph.DirectedLine(nodes)
		w, members := buildWorld(g, func(ref.Ref) Protocol { return NewCliqueTC() })
		sched := sim.NewRoundScheduler()
		for w.Steps() < 4000000 && !CheckTarget(w, members) {
			a, ok := sched.Next(w)
			if !ok {
				break
			}
			w.Execute(a)
		}
		if !CheckTarget(w, members) {
			t.Fatalf("n=%d: clique not reached", n)
		}
		bound := 2*int(math.Ceil(math.Log2(float64(n)))) + 4
		if sched.Rounds() > bound {
			t.Fatalf("n=%d: %d rounds exceeds O(log n) bound %d", n, sched.Rounds(), bound)
		}
	}
}

func TestStandaloneAdapterRefs(t *testing.T) {
	nodes := ref.NewSpace().NewN(2)
	l := NewCliqueTC()
	l.AddNeighbor(nodes[1])
	s := &Standalone{P: l}
	if len(s.Refs()) != 1 || s.Refs()[0] != nodes[1] {
		t.Fatal("Standalone must expose overlay refs")
	}
}

func TestCheckTargetPanicsOnNonOverlay(t *testing.T) {
	nodes := ref.NewSpace().NewN(1)
	w := sim.NewWorld(nil)
	w.AddProcess(nodes[0], sim.Staying, nonOverlay{})
	defer func() {
		if recover() == nil {
			t.Fatal("CheckTarget must panic for non-overlay processes")
		}
	}()
	CheckTarget(w, nodes)
}

type nonOverlay struct{}

func (nonOverlay) Timeout(sim.Context)              {}
func (nonOverlay) Deliver(sim.Context, sim.Message) {}
func (nonOverlay) Refs() []ref.Ref                  { return nil }

func TestProtocolNamesAndAccessors(t *testing.T) {
	nodes := ref.NewSpace().NewN(4)
	keys := mkKeys(nodes)
	lin := NewLinearize(keys)
	ring := NewSortRing(keys)
	skip := NewSkipList(keys)
	cl := NewCliqueTC()
	if lin.Name() != "linearize" || ring.Name() != "sortring" ||
		skip.Name() != "skiplist" || cl.Name() != "clique" {
		t.Fatal("protocol names wrong")
	}
	lin.AddNeighbor(nodes[1])
	if !lin.Neighbors().Has(nodes[1]) {
		t.Fatal("Neighbors accessor wrong")
	}
	if AsLinearize(lin) != lin || AsLinearize(ring) == nil || AsLinearize(skip) == nil {
		t.Fatal("AsLinearize must resolve embedders")
	}
	if AsLinearize(cl) != nil {
		t.Fatal("clique has no linearization state")
	}
	if lin.Lin() != lin || ring.Lin() == nil || skip.Lin() == nil {
		t.Fatal("Lin accessors wrong")
	}
}

func TestReintegrateAndExcludeAcrossProtocols(t *testing.T) {
	nodes := ref.NewSpace().NewN(3)
	keys := mkKeys(nodes)
	ctx := &recCtx{self: nodes[0]}
	protos := []Protocol{NewLinearize(keys), NewSortRing(keys), NewSkipList(keys), NewCliqueTC()}
	for _, p := range protos {
		p.Reintegrate(ctx, nodes[1])
		if len(p.Refs()) != 1 {
			t.Fatalf("%s: reintegrate broken", p.Name())
		}
		p.Reintegrate(ctx, nodes[0]) // self must be ignored
		if len(p.Refs()) != 1 {
			t.Fatalf("%s: reintegrated self", p.Name())
		}
		p.Exclude(nodes[1])
		if len(p.Refs()) != 0 {
			t.Fatalf("%s: exclude broken", p.Name())
		}
	}
}

// A world of standalone overlays clones (Standalone is a
// sim.CloneableProtocol through Cloneable): driving the original to its
// target moves no clone's references, and the clone then gets there itself.
func TestStandaloneCloneIndependence(t *testing.T) {
	nodes := ref.NewSpace().NewN(8)
	keys := mkKeys(nodes)
	for _, mk := range []func() Protocol{
		func() Protocol { return NewLinearize(keys) },
		func() Protocol { return NewSortRing(keys) },
		func() Protocol { return NewSkipList(keys) },
		func() Protocol { return NewCliqueTC() },
	} {
		name := mk().Name()
		g := graph.RandomConnected(nodes, 4, rand.New(rand.NewSource(3)))
		w, members := buildWorld(g, func(ref.Ref) Protocol { return mk() })
		sched := sim.NewRandomScheduler(3, 256)
		for i := 0; i < 40; i++ {
			if a, ok := sched.Next(w); ok {
				w.Execute(a)
			}
		}
		c := w.Clone()
		before := make(map[ref.Ref][]ref.Ref)
		for _, r := range members {
			before[r] = append([]ref.Ref(nil), c.ProtocolOf(r).Refs()...)
		}
		runToTarget(t, w, members, sched, 600000)
		for _, r := range members {
			if got := c.ProtocolOf(r).Refs(); !slices.Equal(got, before[r]) {
				t.Fatalf("%s %v: driving the original moved the clone from %v to %v", name, r, before[r], got)
			}
		}
		runToTarget(t, c, members, sim.NewRandomScheduler(4, 256), 600000)
	}
}
