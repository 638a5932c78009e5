// Stub of fdp/internal/sim for the lockgraph fixtures.
package sim

import "fdp/internal/ref"

type World struct{ Steps int }

type Oracle interface {
	Name() string
	Evaluate(w *World, u ref.Ref) bool
}
