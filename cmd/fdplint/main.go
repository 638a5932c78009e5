// Command fdplint runs the fdp static-analysis suite (see
// internal/analysis/all) over the whole program:
//
//	fdplint [packages]
//
// loads the module in dependency order via the go build machinery, runs
// every analyzer over every package with one shared fact store, and prints
// findings. Patterns default to ./... relative to the current directory.
// This is what `make lint` runs.
//
// See DESIGN.md §9 and §14 for the invariants each analyzer enforces and
// the //fdplint:ignore escape hatch.
package main

import (
	"fmt"
	"os"

	"fdp/internal/analysis/all"
	"fdp/internal/analysis/program"
)

func main() {
	res, err := program.Run(program.Options{Patterns: os.Args[1:]}, all.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdplint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range res.Diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", res.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}
