package framework

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// fuzzCtx tolerates anything and records nothing but send counts.
type fuzzCtx struct {
	self   ref.Ref
	mode   sim.Mode
	oracle bool
	sent   int
	exited bool
	slept  bool
}

func (c *fuzzCtx) Self() ref.Ref             { return c.self }
func (c *fuzzCtx) Mode() sim.Mode            { return c.mode }
func (c *fuzzCtx) Exit()                     { c.exited = true }
func (c *fuzzCtx) Sleep()                    { c.slept = true }
func (c *fuzzCtx) OracleSays() bool          { return c.oracle }
func (c *fuzzCtx) Send(ref.Ref, sim.Message) { c.sent++ }

// Property: feeding a wrapper arbitrary sequences of arbitrary messages
// (all labels, garbage refs, self refs, wrong modes, malformed payloads)
// never panics, never stores a self reference, and never stores ⊥.
func TestQuickWrapperRobustToArbitraryMessages(t *testing.T) {
	labels := []string{
		LabelVerify, LabelProcess, core.LabelPresent, core.LabelForward,
		overlay.LabelLink, overlay.LabelSeek, overlay.LabelWrap,
		overlay.LabelIntro, overlay.LabelProbe, overlay.LabelLvl1,
		"garbage", "",
	}
	f := func(seedRaw uint16, leavingRaw bool) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		space := ref.NewSpace()
		self := space.New()
		others := space.NewN(5)
		keys := make(overlay.Keys, 6)
		keys[self] = 0
		for i, r := range others {
			keys[r] = i + 1
		}
		var inner overlay.Protocol
		switch rng.Intn(4) {
		case 0:
			inner = overlay.NewLinearize(keys)
		case 1:
			inner = overlay.NewSortRing(keys)
		case 2:
			inner = overlay.NewSkipList(keys)
		default:
			inner = overlay.NewCliqueTC()
		}
		w := New(inner, core.VariantFDP)
		mode := sim.Staying
		if leavingRaw {
			mode = sim.Leaving
		}
		ctx := &fuzzCtx{self: self, mode: mode}
		for step := 0; step < 60; step++ {
			if rng.Intn(5) == 0 {
				w.Timeout(ctx)
				continue
			}
			nrefs := rng.Intn(3)
			refs := make([]sim.RefInfo, nrefs)
			for i := range refs {
				target := others[rng.Intn(len(others))]
				if rng.Intn(5) == 0 {
					target = self // deliberately poisonous
				}
				refs[i] = sim.RefInfo{Ref: target, Mode: sim.Mode(rng.Intn(4))}
			}
			w.Deliver(ctx, sim.Message{
				Label:   labels[rng.Intn(len(labels))],
				Refs:    refs,
				Payload: rng.Intn(3),
			})
		}
		// Pending entries may legitimately carry the process's own
		// reference (P's periodic self-introduction); the overlay state,
		// the shed set and the anchor must not.
		for _, r := range w.Overlay().Refs() {
			if r == self || r.IsNil() {
				return false
			}
		}
		if w.Anchor() == self {
			return false
		}
		for _, r := range w.Refs() {
			if r.IsNil() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a staying wrapper's anchor never survives a timeout (staying
// processes need no anchor), and a leaving wrapper never keeps P state
// after its timeout.
func TestQuickWrapperTimeoutInvariants(t *testing.T) {
	f := func(seedRaw uint16) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		space := ref.NewSpace()
		self := space.New()
		others := space.NewN(4)
		keys := make(overlay.Keys, 5)
		keys[self] = 0
		for i, r := range others {
			keys[r] = i + 1
		}
		// Staying wrapper with a corrupted anchor.
		ws := New(overlay.NewLinearize(keys), core.VariantFDP)
		ws.SetAnchor(others[0], sim.Mode(rng.Intn(2)))
		ws.Timeout(&fuzzCtx{self: self, mode: sim.Staying})
		if !ws.Anchor().IsNil() {
			return false
		}
		// Leaving wrapper with P state and pending entries.
		wl := New(overlay.NewLinearize(keys), core.VariantFDP)
		lin := wl.Overlay().(*overlay.Linearize)
		lin.AddNeighbor(others[1])
		lin.AddNeighbor(others[2])
		wl.InjectPending(others[3], overlay.LabelLink, []ref.Ref{others[1]}, nil)
		wl.Timeout(&fuzzCtx{self: self, mode: sim.Leaving})
		return len(lin.Refs()) == 0 && wl.PendingCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end fuzz: random framework scenarios — every topology and leave
// pattern the scenario builder knows, random corruption — all converge with
// safety intact.
func TestQuickFrameworkConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz")
	}
	f := func(seedRaw uint16) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		topos, pats := churn.Topologies(), churn.Patterns()
		topo := topos[rng.Intn(len(topos))]
		n := 6 + rng.Intn(5)
		if topo == churn.TopoHypercube {
			n = 8
		}
		sc := churn.Build(churn.Config{
			N: n, Topology: topo, Pattern: pats[rng.Intn(len(pats))],
			// Clique's Θ(n²) traffic is covered by TestTheorem4AllOverlays;
			// fuzz the cheaper three for breadth at speed.
			Overlay: []OverlayKind{
				OverlayLinearize, OverlayRing, OverlaySkip,
			}[rng.Intn(3)],
			LeaveFraction: float64(rng.Intn(50)) / 100,
			Oracle:        oracle.Single{},
			Seed:          int64(seedRaw),
			Corrupt: churn.Corruption{
				RandomAnchors: float64(rng.Intn(60)) / 100,
				JunkPending:   rng.Intn(5),
			},
		})
		res := sim.Run(sc.World, sim.NewRandomScheduler(int64(seedRaw), 256), sim.RunOptions{
			Variant: sim.FDP, MaxSteps: 2_000_000, CheckSafety: true, Target: sc.InTarget,
		})
		if !res.Converged {
			t.Logf("seed %d, %v/%v/%v: %+v", seedRaw, topo, sc.Config.Pattern, sc.Config.Overlay, res.SafetyViolation)
		}
		return res.Converged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
