package parallel

import (
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// SealedDegrees seals rt as Start does, without starting a goroutine, and
// returns every live leaver's ledger degree. rt must not be started
// afterwards.
func SealedDegrees(rt *Runtime) map[ref.Ref]int {
	rt.seal()
	out := map[ref.Ref]int{}
	for _, p := range rt.procs {
		if p != nil && p.mode == sim.Leaving && p.life.Load() != 2 {
			out[p.id] = rt.ledger.Degree(p.id)
		}
	}
	return out
}
