// Stub of fdp/internal/sim: just the guard-relevant surface — the Oracle
// shape, the Context mutators and the World with its mutating methods.
package sim

import "fdp/internal/ref"

type Message struct{ To ref.Ref }

type World struct {
	Steps    int
	counters map[string]int
}

func (w *World) Execute() bool                    { return false }
func (w *World) Enqueue(m Message)                {}
func (w *World) AddProcess(r ref.Ref)             {}
func (w *World) ForceAsleep(r ref.Ref)            {}
func (w *World) SealInitialState()                {}
func (w *World) SetInitialComponents(n int)       {}
func (w *World) Awake(r ref.Ref) bool             { return true }
func (w *World) Counters() map[string]int         { return w.counters }

type Context interface {
	Self() ref.Ref
	Send(to ref.Ref, m Message)
	Exit()
	Sleep()
}

type Oracle interface {
	Name() string
	Evaluate(w *World, u ref.Ref) bool
}
