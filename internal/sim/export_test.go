package sim

import (
	"math/rand"

	"fdp/internal/ref"
)

// DegreeState names what a world keeps for its external tests: "none" or
// "ledger".
var DegreeState = degreeState

// SyncedRefs returns the Refs handout of r the ledger last diffed against.
func SyncedRefs(w *World, r ref.Ref) []ref.Ref { return w.mustProc(r).pgRefs }

// LedgerLeavers returns how many leavers hold a ledger row, or -1 with no
// ledger seeded.
func LedgerLeavers(w *World) int {
	if w.ledger == nil {
		return -1
	}
	return w.ledger.Leavers()
}

// NewChaos returns a chaos protocol (pg_incremental_test.go) that stores
// and sends references among all, drawn from seed; inPlace makes it write
// the slice its Refs last handed out.
func NewChaos(all []ref.Ref, seed int64, inPlace bool) Protocol {
	return &chaosProto{all: all, rng: rand.New(rand.NewSource(seed)), inPlace: inPlace}
}
