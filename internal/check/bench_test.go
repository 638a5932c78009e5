package check

import (
	"testing"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/sim"
)

// BenchmarkExplore prices one exhaustive exploration of E14's instance: a
// line of three, the middle process leaving, every schedule to depth 12.
func BenchmarkExplore(b *testing.B) {
	w, _ := tinyWorld(oracle.Single{}, core.VariantFDP)
	b.ReportAllocs()
	var out Outcome
	for i := 0; i < b.N; i++ {
		out = Explore(w, Options{MaxDepth: 12, Invariant: SafetyInvariant(), Variant: sim.FDP})
	}
	b.ReportMetric(float64(out.StatesExplored), "states/op")
}
