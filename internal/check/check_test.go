package check

import (
	"strings"
	"testing"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/framework"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// tinyWorld builds a line a - u - b with u leaving (clean beliefs), the
// minimal instance where an unsafe exit would disconnect a and b.
func tinyWorld(orc sim.Oracle, variant core.Variant) (*sim.World, []ref.Ref) {
	space := ref.NewSpace()
	a, u, b := space.New(), space.New(), space.New()
	w := sim.NewWorld(orc)
	pa, pu, pb := core.New(variant), core.New(variant), core.New(variant)
	w.AddProcess(a, sim.Staying, pa)
	w.AddProcess(u, sim.Leaving, pu)
	w.AddProcess(b, sim.Staying, pb)
	pa.SetNeighbor(u, sim.Leaving)
	pu.SetNeighbor(a, sim.Staying)
	pu.SetNeighbor(b, sim.Staying)
	pb.SetNeighbor(u, sim.Leaving)
	w.SealInitialState()
	return w, []ref.Ref{a, u, b}
}

// Exhaustive safety: across EVERY schedule up to the depth bound, the
// protocol with SINGLE never disconnects relevant processes.
func TestExhaustiveSafetyLine3(t *testing.T) {
	w, _ := tinyWorld(oracle.Single{}, core.VariantFDP)
	out := Explore(w, Options{
		MaxDepth:  14,
		MaxStates: 300000,
		Invariant: SafetyInvariant(),
		Variant:   sim.FDP,
	})
	if !out.OK() {
		t.Fatalf("safety violated:\n%s", out.Violations[0])
	}
	if out.Truncated {
		t.Fatalf("state space truncated at %d states", out.StatesExplored)
	}
	if out.LegitimateStates == 0 {
		t.Fatal("no schedule reached a legitimate state within the bound")
	}
	t.Logf("explored %d states to depth %d; %d legitimate, %d frontier",
		out.StatesExplored, out.DepthReached, out.LegitimateStates, out.FrontierStates)
}

// The checker must FIND the unsafe schedule when the oracle is the constant
// TRUE: u funnels its neighborhood into its own channel and then exits,
// stranding a and b.
func TestExhaustiveFindsUnsafeOracleViolation(t *testing.T) {
	w, _ := tinyWorld(oracle.Always(true), core.VariantFDP)
	out := Explore(w, Options{
		MaxDepth:  10,
		MaxStates: 300000,
		Invariant: SafetyInvariant(),
		Variant:   sim.FDP,
	})
	if out.OK() {
		t.Fatalf("checker failed to find the known unsafe schedule (%d states, depth %d)",
			out.StatesExplored, out.DepthReached)
	}
	v := out.Violations[0]
	if !strings.Contains(v.String(), "timeout") {
		t.Fatalf("violation schedule should involve timeouts: %s", v)
	}
	t.Logf("found violation: %s", v)
}

// FSP safety: exhaustive over schedules with the sleep variant (no oracle).
func TestExhaustiveSafetyFSP(t *testing.T) {
	w, _ := tinyWorld(nil, core.VariantFSP)
	out := Explore(w, Options{
		MaxDepth:  12,
		MaxStates: 300000,
		Invariant: SafetyInvariant(),
		Variant:   sim.FSP,
	})
	if !out.OK() {
		t.Fatalf("FSP safety violated:\n%s", out.Violations[0])
	}
	if out.LegitimateStates == 0 {
		t.Fatal("no schedule hibernated the leaver within the bound")
	}
}

// Corrupted initial beliefs: exhaustive safety for an invalid-information
// start (a believes u staying, u believes a leaving).
func TestExhaustiveSafetyCorrupted(t *testing.T) {
	space := ref.NewSpace()
	a, u := space.New(), space.New()
	w := sim.NewWorld(oracle.Single{})
	pa, pu := core.New(core.VariantFDP), core.New(core.VariantFDP)
	w.AddProcess(a, sim.Staying, pa)
	w.AddProcess(u, sim.Leaving, pu)
	pa.SetNeighbor(u, sim.Staying) // invalid belief
	pu.SetNeighbor(a, sim.Leaving) // invalid belief
	pu.SetAnchor(a, sim.Leaving)   // invalid anchor belief
	w.Enqueue(a, sim.NewMessage(core.LabelForward, sim.RefInfo{Ref: u, Mode: sim.Staying}))
	w.SealInitialState()
	out := Explore(w, Options{
		MaxDepth:  12,
		MaxStates: 300000,
		Invariant: SafetyInvariant(),
		Variant:   sim.FDP,
	})
	if !out.OK() {
		t.Fatalf("corrupted-start safety violated:\n%s", out.Violations[0])
	}
	if out.LegitimateStates == 0 {
		t.Fatal("no schedule converged within the bound")
	}
}

func TestFingerprintDeduplicates(t *testing.T) {
	w, _ := tinyWorld(oracle.Single{}, core.VariantFDP)
	c1, c2 := w.Clone(), w.Clone()
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("clones must have identical fingerprints")
	}
	// Executing different actions from the same state usually gives
	// different fingerprints.
	acts := c1.EnabledActions()
	c1.Execute(acts[0])
	if c1.Fingerprint() == c2.Fingerprint() {
		t.Fatal("executed world should differ from the original")
	}
}

func TestCloneIndependence(t *testing.T) {
	w, nodes := tinyWorld(oracle.Single{}, core.VariantFDP)
	c := w.Clone()
	// Drive the clone; the original must be untouched.
	for i := 0; i < 50; i++ {
		acts := c.EnabledActions()
		if len(acts) == 0 {
			break
		}
		c.Execute(acts[0])
	}
	if w.Steps() != 0 {
		t.Fatal("original world mutated by clone execution")
	}
	if w.ChannelLen(nodes[0]) != 0 {
		t.Fatal("original channels mutated")
	}
}

func TestExploreTruncation(t *testing.T) {
	w, _ := tinyWorld(oracle.Single{}, core.VariantFDP)
	out := Explore(w, Options{MaxDepth: 20, MaxStates: 5, Variant: sim.FDP})
	if !out.Truncated {
		t.Fatal("tiny MaxStates must truncate")
	}
}

// A violation schedule found by the checker must replay on a fresh copy of
// the same world and reproduce the disconnection.
func TestViolationScheduleReplays(t *testing.T) {
	w, _ := tinyWorld(oracle.Always(true), core.VariantFDP)
	out := Explore(w, Options{
		MaxDepth:  10,
		MaxStates: 300000,
		Invariant: SafetyInvariant(),
		Variant:   sim.FDP,
	})
	if out.OK() {
		t.Fatal("expected a violation to replay")
	}
	fresh := w.Clone()
	for i, a := range out.Violations[0].Schedule {
		if !fresh.ValidateAction(&a) {
			t.Fatalf("violation schedule stalled at action %d on a fresh clone", i)
		}
		fresh.Execute(a)
	}
	if fresh.RelevantComponentsIntact() {
		t.Fatal("replay did not reproduce the disconnection")
	}
}

// A world whose fingerprint would merge distinct states is refused, naming
// the process: a P′ world clones, but its fingerprint would read the
// wrappers' Refs only, and no fingerprint reads a message payload.
func TestExploreRefusesWorldsTheKeyMerges(t *testing.T) {
	wrapped := churn.Build(churn.Config{
		N: 3, Topology: churn.TopoLine, LeaverIndices: []int{1},
		Oracle: oracle.Single{}, Overlay: framework.OverlayLinearize,
	})
	withPayload, nodes := tinyWorld(oracle.Single{}, core.VariantFDP)
	withPayload.Enqueue(nodes[2], sim.Message{Label: core.LabelForward, Payload: 7})
	for _, c := range []struct {
		w    *sim.World
		want string
	}{
		{wrapped.World, "cannot see all of " + wrapped.Nodes[0].String() + "'s"},
		{withPayload, "cannot see all of " + nodes[2].String() + "'s"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("Explore recovered %q, want %q", msg, c.want)
				}
			}()
			Explore(c.w, Options{MaxDepth: 2, Variant: sim.FDP})
		}()
	}
}
