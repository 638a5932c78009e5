// Package check is a bounded explicit-state model checker for the
// simulator: it explores EVERY fair schedule of a (small) world up to a
// depth bound, verifying an invariant in every reachable state. Where the
// randomized tests sample schedules, the checker enumerates them — on tiny
// instances this gives genuine exhaustiveness, catching scheduler-dependent
// bugs that no number of random runs would.
//
// States are deduplicated by the world fingerprint (protocol variables +
// lifecycle + channel multisets), so the exploration is over the quotient
// transition system the protocol actually induces. Explore is one instance
// of the generic breadth-first Search; primitives.Reachable is the other.
package check

import (
	"fmt"
	"slices"

	"fdp/internal/sim"
)

// Options configures an exploration.
type Options struct {
	// MaxDepth bounds the schedule length explored (number of atomic
	// actions); 0 selects 12.
	MaxDepth int
	// MaxStates aborts the exploration when exceeded; 0 selects 1 << 20.
	MaxStates int
	// Invariant is checked in every reachable state (nil = none). Return
	// a non-nil error to report a violation.
	Invariant func(*sim.World) error
	// Variant selects the legitimacy predicate. Exploration stops at
	// legitimate states: their closure is a separate property.
	Variant sim.Variant
}

// Violation is an invariant failure with the schedule that produced it.
type Violation struct {
	Err      error
	Schedule []sim.Action // actions from the initial state to the failure
}

// String renders the violation with its schedule.
func (v Violation) String() string {
	s := fmt.Sprintf("%v after %d actions:", v.Err, len(v.Schedule))
	for _, a := range v.Schedule {
		if a.IsTimeout {
			s += fmt.Sprintf(" %v.timeout", a.Proc)
		} else {
			s += fmt.Sprintf(" %v.recv#%d", a.Proc, a.MsgSeq)
		}
	}
	return s
}

// Outcome reports the exploration results.
type Outcome struct {
	// StatesExplored counts distinct (deduplicated) states expanded.
	StatesExplored int
	// DepthReached is the deepest level fully explored.
	DepthReached int
	// Truncated reports whether MaxStates cut the exploration short.
	Truncated bool
	// Violations holds up to one invariant violation (exploration stops at
	// the first, with its schedule).
	Violations []Violation
	// LegitimateStates counts reached states satisfying the legitimacy
	// predicate.
	LegitimateStates int
	// FrontierStates counts states at the depth bound that are not
	// legitimate (paths that might converge later — the bound cannot
	// decide liveness, only safety).
	FrontierStates int
}

// OK reports whether no violation was found.
func (o Outcome) OK() bool { return len(o.Violations) == 0 }

// Explore runs a breadth-first exhaustive exploration from clones of w. Its
// protocols must be sim.CloneableProtocol and sim.FingerprintableProtocol and
// its messages carry no Payload, or distinct states would share a key: Explore
// panics on such a world, naming the process.
func Explore(w *sim.World, opts Options) Outcome {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 12
	}
	if w.InitialComponents() == nil {
		w.SealInitialState()
	}
	for _, r := range w.Refs() {
		_, full := w.ProtocolOf(r).(sim.FingerprintableProtocol)
		if !full || slices.ContainsFunc(w.ChannelSnapshot(r), func(m sim.Message) bool { return m.Payload != nil }) {
			panic(fmt.Sprintf("check: the fingerprint cannot see all of %v's state and messages", r))
		}
	}
	var out Outcome
	var violation error
	res := Search(w.Clone(), opts.MaxStates, (*sim.World).AppendFingerprint,
		func(cur *sim.World, yield func(sim.Action, *sim.World)) {
			for _, a := range cur.EnabledActions() {
				succ := cur.Clone()
				succ.Execute(a)
				yield(a, succ)
			}
		},
		func(cur *sim.World, depth int) Verdict {
			out.DepthReached = max(out.DepthReached, depth)
			if opts.Invariant != nil {
				if violation = opts.Invariant(cur); violation != nil {
					return Stop
				}
			}
			switch {
			case cur.Legitimate(opts.Variant):
				out.LegitimateStates++
				return Prune
			case depth >= opts.MaxDepth:
				out.FrontierStates++
				return Prune
			}
			return Expand
		})
	out.StatesExplored, out.Truncated = res.States, res.Truncated
	if res.Stopped {
		out.Violations = []Violation{{Err: violation, Schedule: res.Path}}
	}
	return out
}

// SafetyInvariant returns the Lemma 2 invariant as a checker invariant.
func SafetyInvariant() func(*sim.World) error {
	return func(w *sim.World) error {
		if !w.RelevantComponentsIntact() {
			return fmt.Errorf("relevant processes disconnected")
		}
		return nil
	}
}
