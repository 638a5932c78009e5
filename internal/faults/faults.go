// Package faults injects transient faults into a RUNNING system — the
// fault class self-stabilization is defined against (Section 1.2: "a
// self-stabilizing protocol is thus able to recover from transient faults
// regardless of their nature"). Where package churn corrupts initial
// states, this package strikes mid-run: it flips stored mode beliefs,
// scrambles anchors, and injects spurious messages, then lets the protocol
// re-converge.
//
// A strike never deletes references outright (an adversary that burns the
// last copy of a reference provably makes reconnection impossible for any
// copy-store-send protocol, so no protocol could pass such a test); it
// corrupts values while preserving the reference multiset, plus may ADD
// junk. After a strike the system's initial components are re-sealed: the
// post-fault state is the new "arbitrary initial state" convergence is
// measured from.
//
// The same Injector strikes both execution engines: Strike pauses nothing
// (the sequential world is between actions by construction), while
// StrikeRuntime pauses the concurrent runtime under its snapshot write lock
// via parallel.Runtime.Mutate, so the corruption is atomic with respect to
// every process goroutine — identical strike semantics on both sides, which
// is what lets the differential harness (internal/diffval) compare their
// verdicts.
package faults

import (
	"math/rand"

	"fdp/internal/core"
	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Config tunes a strike.
type Config struct {
	// FlipBeliefs is the probability of flipping each stored mode belief.
	FlipBeliefs float64 `json:"flip_beliefs,omitempty"`
	// ScrambleAnchors is the probability per process of corrupting the
	// anchor belief (and, for leaving processes, re-pointing the anchor to
	// a random live process — which adds an edge, never removes one: the
	// displaced anchor reference is kept in flight).
	ScrambleAnchors float64 `json:"scramble_anchors,omitempty"`
	// JunkMessages is the number of spurious present/forward messages
	// injected with random live references and random claims.
	JunkMessages int `json:"junk_messages,omitempty"`
	// DuplicateMessages re-enqueues up to this many copies of random
	// in-flight messages to their original targets — the channel-duplication
	// adversary. Duplication only copies references (never consumes them),
	// so it is admissible for any copy-store-send protocol; a protocol that
	// cannot tolerate a duplicated present/forward message is broken.
	DuplicateMessages int `json:"duplicate_messages,omitempty"`
}

// Wave schedules one strike at a point in a run: after After sequential
// steps on the simulator, or After executed events on the concurrent
// runtime. A run can take a whole train of waves — the "unbounded churn"
// adversary is a wave train with increasing After points. A journal header
// lists the waves of a recorded run in this JSON form.
type Wave struct {
	After int `json:"after"`
	Config
}

// WaveSeed derives the deterministic rng seed of the i-th wave from a run's
// base seed. Recording and replay must derive wave seeds identically for a
// journal to replay byte-identically, so the derivation lives here, next to
// the injector it feeds.
func WaveSeed(base int64, i int) int64 { return base + int64(i+1)*1000003 }

// Report summarizes what a strike corrupted.
type Report struct {
	BeliefsFlipped     int
	AnchorsScrambled   int
	MessagesInjected   int
	MessagesDuplicated int
}

// Injector applies strikes using its own seeded randomness.
type Injector struct {
	cfg Config
	rng *rand.Rand
}

// New returns a seeded injector.
func New(cfg Config, seed int64) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// system abstracts the two execution engines a strike can hit. Both views
// guarantee exclusive access for the duration of the strike and must
// enumerate Live in a deterministic order, so a given (Config, seed) draws
// the same corruption on either engine.
type system interface {
	Live() []ref.Ref
	Alive(r ref.Ref) bool
	ModeOf(r ref.Ref) sim.Mode
	ProtocolOf(r ref.Ref) sim.Protocol
	Enqueue(to ref.Ref, msg sim.Message) bool
	ChannelSnapshot(r ref.Ref) []sim.Message
}

// Strike corrupts the current state of every (non-gone) process running the
// departure protocol, then re-seals the world's initial components so
// legitimacy is judged from the post-fault state.
func (i *Injector) Strike(w *sim.World) Report {
	rep := i.strike(worldSystem{w})
	// The strike mutated protocol variables outside any atomic action, so the
	// degree ledger must be rebuilt.
	w.InvalidatePG()
	// The post-fault state is the new reference point for condition (iii).
	w.SealInitialState()
	return rep
}

// StrikeRuntime applies the same corruption to a RUNNING concurrent
// runtime: the world is paused under the snapshot write lock for the
// duration of the strike (no action executes concurrently), and the
// runtime's initial components are re-sealed from the post-fault state
// before the goroutines resume.
func (i *Injector) StrikeRuntime(rt *parallel.Runtime) Report {
	var rep Report
	rt.Mutate(func(v *parallel.MutableView) {
		rep = i.strike(v)
		v.Reseal()
	})
	return rep
}

// strike is the engine-agnostic corruption pass.
func (i *Injector) strike(sys system) Report {
	rep := Report{}
	live := sys.Live()
	if len(live) == 0 {
		return rep
	}
	for _, r := range live {
		p, ok := sys.ProtocolOf(r).(*core.Proc)
		if !ok {
			continue
		}
		// Reference order: the rng draws must land on the same beliefs
		// from run to run.
		for _, b := range p.NeighborBeliefs() {
			if i.rng.Float64() < i.cfg.FlipBeliefs {
				p.SetNeighbor(b.Ref, flip(b.Mode))
				rep.BeliefsFlipped++
			}
		}
		if !p.Anchor().IsNil() || sys.ModeOf(r) == sim.Leaving {
			if i.rng.Float64() < i.cfg.ScrambleAnchors {
				// Resample until the target differs from the struck process
				// itself. The old code skipped the scramble entirely when the
				// first draw hit r, silently biasing the configured rate
				// downward (by 1/len(live) per eligible process).
				target := live[i.rng.Intn(len(live))]
				for target == r && len(live) > 1 {
					target = live[i.rng.Intn(len(live))]
				}
				if target != r {
					// Keep the displaced anchor reference in flight:
					// overwriting it outright could burn the last copy of a
					// reference, which the package contract forbids.
					old := p.RepointAnchor(target, randomMode(i.rng))
					if !old.Ref.IsNil() && old.Ref != target {
						sys.Enqueue(r, sim.NewMessage(core.LabelPresent, old))
					}
					rep.AnchorsScrambled++
				}
			}
		}
	}
	for n := 0; n < i.cfg.JunkMessages; n++ {
		to := live[i.rng.Intn(len(live))]
		carried := live[i.rng.Intn(len(live))]
		label := core.LabelPresent
		if i.rng.Intn(2) == 0 {
			label = core.LabelForward
		}
		sys.Enqueue(to, sim.NewMessage(label, sim.RefInfo{Ref: carried, Mode: randomMode(i.rng)}))
		rep.MessagesInjected++
	}
	for n := 0; n < i.cfg.DuplicateMessages; n++ {
		to := live[i.rng.Intn(len(live))]
		ch := sys.ChannelSnapshot(to)
		if len(ch) == 0 {
			continue
		}
		// Re-enqueue a copy of one pending message to its original target.
		// The engine restamps sequence and causal identity on enqueue, so the
		// duplicate is a distinct message carrying the same content.
		sys.Enqueue(to, ch[i.rng.Intn(len(ch))])
		rep.MessagesDuplicated++
	}
	return rep
}

// worldSystem adapts the sequential simulator to the strike interface.
type worldSystem struct{ w *sim.World }

func (s worldSystem) Live() []ref.Ref {
	var out []ref.Ref
	for _, r := range s.w.Refs() {
		if s.w.LifeOf(r) != sim.Gone {
			out = append(out, r)
		}
	}
	return out
}

func (s worldSystem) Alive(r ref.Ref) bool {
	return s.w.Has(r) && s.w.LifeOf(r) != sim.Gone
}

func (s worldSystem) ModeOf(r ref.Ref) sim.Mode         { return s.w.ModeOf(r) }
func (s worldSystem) ProtocolOf(r ref.Ref) sim.Protocol { return s.w.ProtocolOf(r) }
func (s worldSystem) ChannelSnapshot(r ref.Ref) []sim.Message {
	if !s.Alive(r) {
		return nil
	}
	return s.w.ChannelSnapshot(r)
}
func (s worldSystem) Enqueue(to ref.Ref, m sim.Message) bool {
	if !s.Alive(to) {
		return false
	}
	s.w.Enqueue(to, m)
	return true
}

// *parallel.MutableView satisfies system directly.
var _ system = (*parallel.MutableView)(nil)

func flip(m sim.Mode) sim.Mode {
	if m == sim.Staying {
		return sim.Leaving
	}
	return sim.Staying
}

func randomMode(rng *rand.Rand) sim.Mode {
	if rng.Intn(2) == 0 {
		return sim.Staying
	}
	return sim.Leaving
}
