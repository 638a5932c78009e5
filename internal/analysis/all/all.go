// Package all registers the full fdplint analyzer suite in one place, so
// cmd/fdplint (make lint) and the mutation tests agree on what "the suite"
// is.
package all

import (
	"fdp/internal/analysis"
	"fdp/internal/analysis/atomicdiscipline"
	"fdp/internal/analysis/detiter"
	"fdp/internal/analysis/guardpurity"
	"fdp/internal/analysis/lockgraph"
	"fdp/internal/analysis/primdecomp"
	"fdp/internal/analysis/refopacity"
)

// Analyzers is the full suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		refopacity.Analyzer,
		detiter.Analyzer,
		guardpurity.Analyzer,
		lockgraph.Analyzer,
		primdecomp.Analyzer,
		atomicdiscipline.Analyzer,
	}
}
