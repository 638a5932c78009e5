package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fdp/internal/graph"
	"fdp/internal/ref"
)

// chaosProto drives the degree ledger through every mutation path: it
// churns its stored references (including duplicates, self, ⊥ and gone
// targets), sends messages carrying random reference lists, queries the
// oracle mid-action (which asks the world inside Timeout/Deliver), and —
// when leaving — exits (FDP) or sleeps (FSP).
type chaosProto struct {
	all  []ref.Ref
	rng  *rand.Rand
	refs []ref.Ref // slice, not set: duplicates give explicit multiplicity >1
	fsp  bool
	// inPlace skips act's copy, so that its removal writes the slice Refs
	// last handed out: a protocol that breaks the Refs contract, for the
	// contract's own test to catch.
	inPlace bool
}

func (c *chaosProto) Refs() []ref.Ref { return c.refs }

func (c *chaosProto) Timeout(ctx Context)            { c.act(ctx) }
func (c *chaosProto) Deliver(ctx Context, _ Message) { c.act(ctx) }

func (c *chaosProto) act(ctx Context) {
	// The last Refs handout is never written (Protocol.Refs): the removal
	// below moves elements in place, so it works on a copy.
	if !c.inPlace {
		c.refs = slices.Clone(c.refs)
	}
	if len(c.refs) > 0 && c.rng.Intn(3) == 0 {
		i := c.rng.Intn(len(c.refs))
		c.refs = append(c.refs[:i], c.refs[i+1:]...)
	}
	if c.rng.Intn(2) == 0 {
		// May duplicate an existing ref, reference itself, or a gone process.
		c.refs = append(c.refs, c.all[c.rng.Intn(len(c.all))])
	}
	for n := c.rng.Intn(3); n > 0; n-- {
		to := c.all[c.rng.Intn(len(c.all))]
		var ris []RefInfo
		for k := c.rng.Intn(4); k > 0; k-- {
			r := c.all[c.rng.Intn(len(c.all))]
			switch c.rng.Intn(6) {
			case 0:
				r = ref.Nil
			case 1:
				r = ctx.Self()
			}
			ris = append(ris, RefInfo{Ref: r, Mode: Staying})
		}
		ctx.Send(to, Message{Label: "chaos", Refs: ris})
	}
	if c.rng.Intn(4) == 0 {
		ctx.OracleSays() // exercises mid-action queries via checkOracle
	}
	if ctx.Mode() == Leaving && c.rng.Intn(5) == 0 {
		if c.fsp {
			ctx.Sleep()
		} else {
			ctx.Exit()
		}
	}
}

// checkOracle runs check from inside every atomic action that asks the
// oracle, where the acting process's refs may have changed since its last
// sync.
type checkOracle struct {
	t     *testing.T
	check func(t *testing.T, w *World, where string)
}

func (checkOracle) Name() string { return "check" }

func (o checkOracle) Evaluate(w *World, u ref.Ref) bool {
	o.t.Helper()
	o.check(o.t, w, fmt.Sprintf("mid-action of %v, step %d", u, w.Steps()))
	return false
}

// referenceHibernating recomputes the hibernating set from first principles
// on a freshly built graph, using only public accessors.
func referenceHibernating(w *World) ref.Set {
	pg := w.PG()
	var active []ref.Ref
	for _, r := range w.Refs() {
		if w.LifeOf(r) == Gone {
			continue
		}
		if w.LifeOf(r) == Awake || w.ChannelLen(r) > 0 {
			active = append(active, r)
		}
	}
	tainted := pg.ForwardReachAll(active)
	out := ref.NewSet()
	for _, r := range w.Refs() {
		if w.LifeOf(r) != Asleep || w.ChannelLen(r) > 0 {
			continue
		}
		if !tainted.Has(r) {
			out.Add(r)
		}
	}
	return out
}

// referenceRelevantPG is PG induced on the processes that are neither gone
// nor in referenceHibernating.
func referenceRelevantPG(w *World) *graph.Graph {
	pg := w.PG()
	hib := referenceHibernating(w)
	keep := ref.NewSet()
	for _, r := range pg.Nodes() {
		if !hib.Has(r) {
			keep.Add(r)
		}
	}
	return pg.InducedSubgraph(keep)
}

// wantNIDEC is NIDEC's verdict from first principles: u is relevant, its
// channel is empty, and it has no predecessor in the relevant PG.
func wantNIDEC(w *World, u ref.Ref) bool {
	pg := referenceRelevantPG(w)
	return pg.HasNode(u) && w.ChannelLen(u) == 0 && len(pg.Pred(u)) == 0
}

// wantIntact is Lemma 2 from first principles: per initial component, the
// relevant members the world holds are weakly connected in the relevant PG.
func wantIntact(w *World) bool {
	pg := referenceRelevantPG(w)
	for _, comp := range w.InitialComponents() {
		var members []ref.Ref
		for _, r := range comp {
			if pg.HasNode(r) {
				members = append(members, r)
			}
		}
		if len(members) < 2 {
			continue
		}
		reach := pg.UndirectedReach(members[0])
		for _, m := range members[1:] {
			if !reach.Has(m) {
				return false
			}
		}
	}
	return true
}

// checkVerdicts compares the hibernating set, every live process's NIDEC
// verdict and the Lemma 2 check with their first-principles references.
func checkVerdicts(t *testing.T, w *World, where string) {
	t.Helper()
	if got, want := w.Hibernating(), referenceHibernating(w); !got.Equal(want) {
		t.Fatalf("%s: Hibernating = %v, want %v", where, got.Sorted(), want.Sorted())
	}
	for _, r := range w.Refs() {
		if w.LifeOf(r) == Gone {
			continue
		}
		if got, want := w.NIDEC(r), wantNIDEC(w, r); got != want {
			t.Fatalf("%s: NIDEC(%v) of a %v process = %v, rebuilt PG says %v", where, r, w.ModeOf(r), got, want)
		}
	}
	if got, want := w.RelevantComponentsIntact(), wantIntact(w); got != want {
		t.Fatalf("%s: RelevantComponentsIntact = %v, rebuilt PG says %v", where, got, want)
	}
}

// chaosSchedulers are the four schedulers the differential tests run under.
var chaosSchedulers = []struct {
	name string
	mk   func(seed int64) Scheduler
}{
	{"random", func(seed int64) Scheduler { return NewRandomScheduler(seed, 32) }},
	{"adversarial", func(seed int64) Scheduler { return NewAdversarialScheduler(seed, 32) }},
	{"rounds", func(int64) Scheduler { return NewRoundScheduler() }},
	{"fifo", func(int64) Scheduler { return NewFIFOScheduler() }},
}

// runChaos builds a sealed world of n chaosProto processes (every third one
// leaving) with random initial refs and in-flight messages, then drives it
// under sched for up to maxSteps, interleaving external enqueues and forced
// sleeps, and calls check after every step. The sealed partition also names
// a process the world does not hold, as a frozen runtime world's does. If
// elsewhere is non-nil, the processes it names are hosted elsewhere: the
// world's processes reference them and send to them, but run none of them.
func runChaos(seed int64, n, maxSteps int, variant Variant, orc Oracle, sched Scheduler, elsewhere func(i int) bool, check func(w *World)) {
	rng := rand.New(rand.NewSource(seed))
	space := ref.NewSpace()
	nodes := space.NewN(n)
	w := NewWorld(orc)
	for i, r := range nodes {
		mode := Staying
		if i%3 == 0 {
			mode = Leaving
		}
		if elsewhere != nil && elsewhere(i) {
			w.HostElsewhere(r, mode)
			continue
		}
		p := &chaosProto{
			all: nodes,
			rng: rand.New(rand.NewSource(seed + int64(i) + 1)),
			fsp: variant == FSP,
		}
		// Random initial refs, duplicates allowed.
		for k := rng.Intn(4); k > 0; k-- {
			p.refs = append(p.refs, nodes[rng.Intn(n)])
		}
		w.AddProcess(r, mode, p)
	}
	// Random initial in-flight messages.
	for k := rng.Intn(6); k > 0; k-- {
		w.Enqueue(nodes[rng.Intn(n)], NewMessage("init",
			RefInfo{Ref: nodes[rng.Intn(n)], Mode: Staying}))
	}
	w.SealInitialState()
	comps := w.InitialComponents()
	comps[0] = append(comps[0], space.New())
	w.SetInitialComponents(comps)
	for w.Steps() < maxSteps {
		a, ok := sched.Next(w)
		if !ok {
			break
		}
		w.Execute(a)
		// External enqueues and sleeps interleave with scheduled actions.
		if w.Steps()%37 == 0 {
			w.Enqueue(nodes[rng.Intn(n)], NewMessage("ext",
				RefInfo{Ref: nodes[rng.Intn(n)], Mode: Leaving}))
		}
		if r := nodes[rng.Intn(n)]; w.Steps()%41 == 0 && w.Has(r) && w.LifeOf(r) == Awake {
			w.ForceAsleep(r)
		}
		check(w)
	}
}

// TestIncrementalPGMatchesRebuild is the differential property test of the
// PG predicates the world answers incrementally, the degree aside (see
// TestLedgerDegreeMatchesRebuild): under every scheduler and both problem
// variants, after every step and mid-action, the hibernating set, every live
// process's NIDEC verdict and the Lemma 2 check must equal references
// computed on a built PG with the hibernating set derived from first
// principles.
func TestIncrementalPGMatchesRebuild(t *testing.T) {
	for si, sc := range chaosSchedulers {
		for _, variant := range []Variant{FDP, FSP} {
			t.Run(fmt.Sprintf("%s/%v", sc.name, variant), func(t *testing.T) {
				seed := int64(si)*97 + int64(variant)*13 + 5
				asleep := 0
				runChaos(seed, 10, 300, variant, checkOracle{t, checkVerdicts}, sc.mk(seed), nil, func(w *World) {
					checkVerdicts(t, w, fmt.Sprintf("step %d", w.Steps()))
					if w.asleep > 0 {
						asleep++
					}
				})
				if asleep == 0 {
					t.Fatal("no step ran with a process asleep")
				}
			})
		}
	}
}

// TestInvalidatePGAfterExternalMutation covers the documented contract for
// code that mutates protocol variables outside an atomic action (fault
// injectors, surgical tests): after InvalidatePG the next query reseeds the
// ledger, and the degree and NIDEC see the change.
func TestInvalidatePGAfterExternalMutation(t *testing.T) {
	space := ref.NewSpace()
	a, b, c := space.New(), space.New(), space.New()
	w := NewWorld(nil)
	fa, fc := newFixture(), newFixture()
	w.AddProcess(a, Leaving, fa)
	w.AddProcess(b, Staying, newFixture())
	w.AddProcess(c, Staying, fc)
	fa.refs.Add(b)
	if d, _ := w.RelevantDegree(a); d != 1 || !w.NIDEC(a) { // seeds the ledger
		t.Fatalf("a -> b: degree %d, NIDEC %v; want 1, true", d, w.NIDEC(a))
	}
	fc.refs.Add(a) // external mutation, invisible to the ledger
	w.InvalidatePG()
	if d, _ := w.RelevantDegree(a); d != 2 || w.NIDEC(a) {
		t.Fatalf("after c -> a and InvalidatePG: degree %d, NIDEC %v; want 2, false", d, w.NIDEC(a))
	}
	checkEveryDegree(t, w, "after InvalidatePG")
	checkVerdicts(t, w, "after InvalidatePG")
}

// TestHibernatingNeighboursAreNotRelevant: a hibernating process that holds
// references is in its neighbours' ledger rows, yet no relevant neighbour.
// Stayer x and leaver y are joined only through h, a leaver that stores them
// both and that nobody reaches; once h sleeps it hibernates, so y has no
// relevant neighbour, h's edge into y no longer denies NIDEC, and x and y,
// sealed in one component, are disconnected.
func TestHibernatingNeighboursAreNotRelevant(t *testing.T) {
	space := ref.NewSpace()
	x, y, h := space.New(), space.New(), space.New()
	w := NewWorld(nil)
	fh := newFixture()
	w.AddProcess(x, Staying, newFixture())
	w.AddProcess(y, Leaving, newFixture())
	w.AddProcess(h, Leaving, fh)
	fh.refs.Add(x)
	fh.refs.Add(y)
	w.SealInitialState()
	if d, _ := w.RelevantDegree(y); d != 1 || w.NIDEC(y) || !w.RelevantComponentsIntact() {
		t.Fatalf("h awake: degree of y %d, NIDEC(y) %v, intact %v; want 1, false, true",
			d, w.NIDEC(y), w.RelevantComponentsIntact())
	}
	w.ForceAsleep(h)
	if hib := w.Hibernating(); !hib.Has(h) || hib.Len() != 1 {
		t.Fatalf("hibernating %v, want only %v", hib.Sorted(), h)
	}
	if d, ok := w.RelevantDegree(y); d != 0 || !ok {
		t.Fatalf("RelevantDegree(y) = %d, %v; want 0, true", d, ok)
	}
	if !w.NIDEC(y) {
		t.Fatal("NIDEC(y) denied by the hibernating h's edge")
	}
	if w.RelevantComponentsIntact() {
		t.Fatal("x and y are joined only through the hibernating h")
	}
	checkEveryDegree(t, w, "h hibernating")
	checkVerdicts(t, w, "h hibernating")
}

// TestRandomWorldsMatchRebuild: on small random worlds — most processes
// asleep, few edges, some gone, so that processes hibernate and sit in live
// leavers' rows, and a sealed component naming a process the world does not
// hold — every degree, NIDEC verdict and the Lemma 2 check equal their
// first-principles references.
func TestRandomWorldsMatchRebuild(t *testing.T) {
	hibernated := 0
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space := ref.NewSpace()
		nodes := space.NewN(6)
		w := NewWorld(nil)
		fx := make([]*fixtureProto, len(nodes))
		for i, r := range nodes {
			fx[i] = newFixture()
			mode := Staying
			if rng.Intn(2) == 0 {
				mode = Leaving
			}
			w.AddProcess(r, mode, fx[i])
		}
		for _, f := range fx {
			for k := rng.Intn(3); k > 0; k-- {
				f.refs.Add(nodes[rng.Intn(len(nodes))])
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			w.Enqueue(nodes[rng.Intn(len(nodes))], NewMessage("m", RefInfo{Ref: nodes[rng.Intn(len(nodes))]}))
		}
		w.SealInitialState()
		comps := w.InitialComponents()
		comps[0] = append(comps[0], space.New()) // held by no world, like an exited process a frozen world omits
		w.SetInitialComponents(comps)
		for _, r := range nodes {
			switch rng.Intn(10) {
			case 0:
				w.MarkGone(r)
			case 1, 2, 3, 4, 5, 6:
				w.ForceAsleep(r)
			}
		}
		where := fmt.Sprintf("seed %d", seed)
		checkEveryDegree(t, w, where)
		checkVerdicts(t, w, where)
		if w.Hibernating().Len() > 0 {
			hibernated++
		}
	}
	if hibernated < 100 {
		t.Fatalf("only %d of 500 worlds have a hibernating process", hibernated)
	}
}
