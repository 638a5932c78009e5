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

// InboxFull reports whether the inbox of the shard that owns r has anything
// in it: what a worker's check for mail reads.
func InboxFull(rt *Runtime, r ref.Ref) bool {
	return rt.shards[rt.lookup(r).shard.Load()].inboxFull.Load()
}

// BuildShardedRuntime is buildShardedRuntime, for the external tests that
// record journals (trace imports this package through faults).
var BuildShardedRuntime = buildShardedRuntime
