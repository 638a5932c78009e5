package lockgraph

import (
	"testing"

	"fdp/internal/analysis/analysistest"
)

// TestLockGraph runs the lockdep/lockuse fixture dependency-first, so
// lockuse imports the FuncLocks and PkgGraph facts lockdep exported — the
// cycle, the cross-package leaf violation, and the handoff idiom are only
// checkable with that fact flow. The parallel fixture carries the rules
// that name the runtime: Evaluate under oracleMu, and the pauseAll/resumeAll
// handoff pair with its leaks.
func TestLockGraph(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "fdp/internal/lockdep", "fdp/internal/lockuse", "fdp/internal/parallel")
}
