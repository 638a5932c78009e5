package sim

import "fdp/internal/ref"

// DegreeState names what a world keeps for its external tests: "none" or
// "ledger".
var DegreeState = degreeState

// SyncedRefs returns the copy of r's stored references the ledger last
// diffed against.
func SyncedRefs(w *World, r ref.Ref) []ref.Ref { return w.mustProc(r).pgRefs }

// LedgerLeavers returns how many leavers hold a ledger row, or -1 with no
// ledger seeded.
func LedgerLeavers(w *World) int {
	if w.ledger == nil {
		return -1
	}
	return w.ledger.Leavers()
}
