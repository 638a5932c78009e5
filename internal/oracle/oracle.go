// Package oracle implements the oracles of Section 1.3. An oracle is a
// predicate O: PG × P -> {true,false} over the current process graph of
// relevant processes and the calling process. Foreback et al. showed that
// no local-control protocol can decide when a departure is safe, so any FDP
// solution must rely on one.
//
// The paper's protocol relies on SINGLE, chosen for its simplicity ("we
// expect it to be easily implementable via timeouts in practice"). For the
// baseline of Foreback et al. we also provide NIDEC, and for ablations an
// unsound timeout approximation of SINGLE and trivially unsafe/over-safe
// oracles.
package oracle

import (
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Single is the SINGLE oracle: it evaluates to true for a process u iff u
// has edges (in either direction, explicit or implicit) with at most one
// other relevant process in PG.
type Single struct{}

// Name returns "SINGLE".
func (Single) Name() string { return "SINGLE" }

// Evaluate implements sim.Oracle. It uses the world's incremental degree
// query — O(1) when nothing hibernates — instead of materializing the
// relevant process graph.
func (Single) Evaluate(w *sim.World, u ref.Ref) bool {
	deg, relevant := w.RelevantDegree(u)
	if !relevant {
		// u itself is not relevant (cannot happen for a calling process,
		// which is awake); be conservative.
		return false
	}
	return deg <= 1
}

// JudgeDegree is the degree-only form of Evaluate: SINGLE's verdict is a
// pure function of the caller's relevant degree. Engines that maintain that
// degree incrementally (the concurrent runtime's degree ledger) judge exits
// through it without materializing a world snapshot.
func (Single) JudgeDegree(deg int) bool { return deg <= 1 }

// NIDEC is the oracle of Foreback et al. [15]: true for u iff No process
// holds a reference of u (no Incoming Edges) and u's Channel is empty
// ("DEC": departure channel empty). It is strictly stronger than needed for
// safety and requires the leaving process to have shed all incoming edges
// before it may go.
type NIDEC struct{}

// Name returns "NIDEC".
func (NIDEC) Name() string { return "NIDEC" }

// Evaluate implements sim.Oracle. Like Single it avoids materializing the
// relevant process graph: the world judges a leaver from its degree-ledger
// row (sim.World.NIDEC).
func (NIDEC) Evaluate(w *sim.World, u ref.Ref) bool { return w.NIDEC(u) }

// ExitSafe is the ideal "ground truth" oracle used to *verify* exits in
// tests, not by protocols: true iff removing u and its incident edges from
// PG does not disconnect any two other relevant processes that are currently
// weakly connected. SINGLE(u) implies ExitSafe(u); the converse fails, which
// experiment E10 quantifies as missed exit opportunities.
type ExitSafe struct{}

// Name returns "EXITSAFE".
func (ExitSafe) Name() string { return "EXITSAFE" }

// Evaluate implements sim.Oracle: the other members of u's weakly connected
// component must remain weakly connected once u and its incident edges are
// removed. O(n+m) per call.
func (ExitSafe) Evaluate(w *sim.World, u ref.Ref) bool {
	pg := w.RelevantPG()
	others := pg.UndirectedReach(u) // nil if u is not relevant
	if others.Len() <= 2 {
		return true
	}
	others.Remove(u)
	pg.RemoveNode(u)
	// Removing u cannot join anything, so the reach of one other member
	// covers them all iff it is as large.
	return pg.UndirectedReach(others.Sorted()[0]).Len() == others.Len()
}

// Always answers a constant; Always(true) is deliberately unsafe (a leaving
// process may exit immediately) and is used by negative tests to show that
// the protocol's safety indeed depends on the oracle.
type Always bool

// Name returns "TRUE" or "FALSE".
func (a Always) Name() string {
	if a {
		return "TRUE"
	}
	return "FALSE"
}

// Evaluate implements sim.Oracle.
func (a Always) Evaluate(*sim.World, ref.Ref) bool { return bool(a) }

// JudgeDegree returns the constant, ignoring the degree: Always is a
// degree-judged oracle in the trivial sense, so the concurrent runtime's
// degree path covers the unsafe-oracle ablations too.
func (a Always) JudgeDegree(int) bool { return bool(a) }

// TimeoutSingle approximates SINGLE the way a practical deployment would:
// instead of a consistent global snapshot, it remembers the answer computed
// some steps ago (staleness) and refreshes it only every Period calls. A
// stale answer can be wrong in both directions; experiment E10 measures the
// consequences.
type TimeoutSingle struct {
	// Period is the refresh interval in oracle calls per process.
	Period int

	calls map[ref.Ref]int
	last  map[ref.Ref]bool
}

// NewTimeoutSingle returns a timeout-approximate SINGLE with the given
// refresh period (<=0 selects 3).
func NewTimeoutSingle(period int) *TimeoutSingle {
	if period <= 0 {
		period = 3
	}
	return &TimeoutSingle{
		Period: period,
		calls:  make(map[ref.Ref]int),
		last:   make(map[ref.Ref]bool),
	}
}

// Name returns "SINGLE~timeout".
func (o *TimeoutSingle) Name() string { return "SINGLE~timeout" }

// Evaluate implements sim.Oracle.
func (o *TimeoutSingle) Evaluate(w *sim.World, u ref.Ref) bool {
	o.calls[u]++
	if o.calls[u]%o.Period == 1 || o.Period == 1 {
		o.last[u] = Single{}.Evaluate(w, u)
	}
	return o.last[u]
}

// EC is the weakest oracle from the Foreback et al. [15] taxonomy: true for
// u iff u's Channel is Empty. It ignores references other processes hold,
// so exits it permits can disconnect the overlay — the negative result the
// taxonomy uses to show channel-emptiness alone is insufficient.
type EC struct{}

// Name returns "EC".
func (EC) Name() string { return "EC" }

// Evaluate implements sim.Oracle.
func (EC) Evaluate(w *sim.World, u ref.Ref) bool {
	return w.ChannelLen(u) == 0
}
