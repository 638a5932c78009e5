package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"fdp/internal/ref"
)

// chaosProto drives the incremental process graph through every mutation
// path: it churns its stored references (including duplicates, self, ⊥ and
// gone targets), sends messages carrying random reference lists, queries the
// oracle mid-action (which snapshots PG inside Timeout/Deliver), and — when
// leaving — exits (FDP) or sleeps (FSP).
type chaosProto struct {
	all  []ref.Ref
	rng  *rand.Rand
	refs []ref.Ref // slice, not set: duplicates give explicit multiplicity >1
	fsp  bool
}

func (c *chaosProto) Refs() []ref.Ref { return c.refs }

func (c *chaosProto) Timeout(ctx Context)            { c.act(ctx) }
func (c *chaosProto) Deliver(ctx Context, _ Message) { c.act(ctx) }

func (c *chaosProto) act(ctx Context) {
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
		ctx.OracleSays() // exercises mid-action PG queries via diffOracle
	}
	if ctx.Mode() == Leaving && c.rng.Intn(5) == 0 {
		if c.fsp {
			ctx.Sleep()
		} else {
			ctx.Exit()
		}
	}
}

// diffOracle checks, from inside an atomic action, that the incremental
// graph matches a from-scratch rebuild — the acting process's refs may have
// changed mid-action and pgView must fold that delta in before answering.
type diffOracle struct{ t *testing.T }

func (diffOracle) Name() string { return "diff" }

func (d diffOracle) Evaluate(w *World, u ref.Ref) bool {
	d.t.Helper()
	if inc, ref := w.PG(), w.RebuildPG(); !inc.Equal(ref) {
		d.t.Fatalf("mid-action PG diverged for %v:\n  incremental %v\n  rebuilt    %v", u, inc, ref)
	}
	return false
}

// referenceHibernating recomputes the hibernating set from first principles
// on a freshly rebuilt graph, using only public accessors.
func referenceHibernating(w *World) ref.Set {
	pg := w.RebuildPG()
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

func checkAgainstRebuild(t *testing.T, w *World, step int) {
	t.Helper()
	if inc, reb := w.PG(), w.RebuildPG(); !inc.Equal(reb) {
		t.Fatalf("step %d: PG diverged:\n  incremental %v\n  rebuilt    %v", step, inc, reb)
	}
	if got, want := w.Hibernating(), referenceHibernating(w); !got.Equal(want) {
		t.Fatalf("step %d: Hibernating = %v, want %v", step, got.Sorted(), want.Sorted())
	}
	rel := w.Relevant()
	relPG := w.RelevantPG()
	for _, r := range w.Refs() {
		deg, ok := w.RelevantDegree(r)
		if ok != rel.Has(r) {
			t.Fatalf("step %d: RelevantDegree(%v) relevant=%v, want %v", step, r, ok, rel.Has(r))
		}
		if ok && deg != relPG.Degree(r) {
			t.Fatalf("step %d: RelevantDegree(%v) = %d, want %d", step, r, deg, relPG.Degree(r))
		}
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
// under sched for up to maxSteps, interleaving external enqueues, and calls
// check after every step.
func runChaos(seed int64, n, maxSteps int, variant Variant, orc Oracle, sched Scheduler, check func(w *World)) {
	rng := rand.New(rand.NewSource(seed))
	space := ref.NewSpace()
	nodes := space.NewN(n)
	w := NewWorld(orc)
	for i, r := range nodes {
		mode := Staying
		if i%3 == 0 {
			mode = Leaving
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
	for w.Steps() < maxSteps {
		a, ok := sched.Next(w)
		if !ok {
			break
		}
		w.Execute(a)
		// External enqueues interleave with scheduled actions.
		if w.Steps()%37 == 0 {
			w.Enqueue(nodes[rng.Intn(n)], NewMessage("ext",
				RefInfo{Ref: nodes[rng.Intn(n)], Mode: Leaving}))
		}
		check(w)
	}
}

// TestIncrementalPGMatchesRebuild is the differential property test of the
// incremental process-graph maintenance: under every scheduler and both
// problem variants, after every step (and mid-action, via diffOracle) the
// incrementally maintained PG must equal a from-scratch rebuild, the cached
// hibernating set must match a first-principles recomputation, and the fast
// degree query must agree with the materialized relevant PG.
func TestIncrementalPGMatchesRebuild(t *testing.T) {
	for si, sc := range chaosSchedulers {
		for _, variant := range []Variant{FDP, FSP} {
			t.Run(fmt.Sprintf("%s/%v", sc.name, variant), func(t *testing.T) {
				seed := int64(si)*97 + int64(variant)*13 + 5
				runChaos(seed, 10, 300, variant, diffOracle{t}, sc.mk(seed), func(w *World) {
					checkAgainstRebuild(t, w, w.Steps())
				})
			})
		}
	}
}

// TestInvalidatePGAfterExternalMutation covers the documented contract for
// code that mutates protocol variables outside an atomic action (fault
// injectors, surgical tests): after InvalidatePG the next query reseeds and
// matches a rebuild.
func TestInvalidatePGAfterExternalMutation(t *testing.T) {
	space := ref.NewSpace()
	a, b := space.New(), space.New()
	w := NewWorld(nil)
	fa, fb := newFixture(), newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(b, Staying, fb)
	fa.refs.Add(b)
	if !w.PG().HasEdge(a, b) { // seeds the incremental graph
		t.Fatal("seeded PG missing stored-ref edge")
	}
	fb.refs.Add(a) // external mutation, invisible to the incremental graph
	w.InvalidatePG()
	if inc, reb := w.PG(), w.RebuildPG(); !inc.Equal(reb) {
		t.Fatalf("after InvalidatePG: incremental %v != rebuilt %v", inc, reb)
	}
	if !w.PG().HasEdge(b, a) {
		t.Fatal("reseeded PG missing externally added edge")
	}
}
