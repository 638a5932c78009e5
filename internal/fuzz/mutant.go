package fuzz

import (
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// MutantSingle is a deliberately broken SINGLE oracle: the guard is loosened
// from degree <= 1 to degree <= 2, so a leaving process may exit while still
// bridging two other relevant processes — exactly the disconnection Lemma 2
// forbids. It exists for the mutation-test harness: a fuzzer that cannot
// find, shrink and replay the failure this mutant plants cannot be trusted
// to find real guard bugs either.
type MutantSingle struct{}

// Name returns "MUTANT-SINGLE".
func (MutantSingle) Name() string { return "MUTANT-SINGLE" }

// Evaluate implements sim.Oracle with the broken guard.
func (MutantSingle) Evaluate(w *sim.World, u ref.Ref) bool {
	deg, relevant := w.RelevantDegree(u)
	return relevant && deg <= 2
}

// JudgeDegree gives the concurrent runtime's degree path the same broken
// guard, so the mutant breaks both engines identically.
func (MutantSingle) JudgeDegree(deg int) bool { return deg <= 2 }

// MutantSingleNever is the liveness dual of MutantSingle: the guard is
// tightened to never grant, so every departure spins forever — the exact
// livelock shape the watchdog (DESIGN.md §16) must classify. MutantSingle
// plants a Lemma 2 (safety) bug; this mutant plants a Lemma 3 (liveness)
// one. It seeds the deterministic watchdog test: under it, messages keep
// flowing, the oracle keeps denying, and no leaver ever settles.
type MutantSingleNever struct{}

// Name returns "MUTANT-SINGLE-NEVER".
func (MutantSingleNever) Name() string { return "MUTANT-SINGLE-NEVER" }

// Evaluate implements sim.Oracle: no exit is ever granted.
func (MutantSingleNever) Evaluate(*sim.World, ref.Ref) bool { return false }

// JudgeDegree denies on the concurrent runtime's degree path too, so the
// livelock reproduces identically on both engines.
func (MutantSingleNever) JudgeDegree(int) bool { return false }

// The mutants register themselves so journals recorded under them replay —
// the shrunk counterexample of a mutation run (and the watchdog's flight-
// recorder fragment) is verified with the same byte-identical replay check
// as a real fixture.
func init() {
	trace.RegisterOracle(MutantSingle{}.Name(), func() sim.Oracle { return MutantSingle{} })
	trace.RegisterOracle(MutantSingleNever{}.Name(), func() sim.Oracle { return MutantSingleNever{} })
}
