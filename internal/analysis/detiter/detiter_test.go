package detiter

import (
	"testing"

	"fdp/internal/analysis/analysistest"
)

func TestDetIter(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer,
		"fdp/internal/sim",      // deterministic package: violations flagged
		"fdp/internal/trace",    // journal subsystem: violations flagged
		"fdp/internal/parallel", // sharded runtime: flagged unless ignored in a driver
		"fdp/internal/harness",  // out of scope: everything allowed
	)
}
