package parallel

import (
	"fdp/internal/graph"
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
	return rt.lookup(r).sh.inboxFull.Load()
}

// BuildShardedRuntime is buildShardedRuntime, for the external tests that
// record journals (trace imports this package through faults).
var BuildShardedRuntime = buildShardedRuntime

// Seal is seal, for the external tests and benchmarks: it seals rt as Start
// does, without starting a goroutine, and reports whether it took the
// hand-over. rt must not be started afterwards.
func Seal(rt *Runtime) bool { return rt.seal() }

// SealState is what seal leaves in a runtime: per live process in reference
// order its ledger row (none without a degree oracle) and cached oracle
// answer, per shard its ready list and its timeout lap, and the initial
// components.
type SealState struct {
	Rows       [][]graph.Pair
	OracleOK   []bool
	Ready      [][]int32
	Laps       [][]ref.Ref
	Components [][]ref.Ref
}

// SealedState reads what seal left in rt.
func SealedState(rt *Runtime) SealState {
	var s SealState
	for _, p := range rt.procs {
		if p != nil && p.life.Load() != 2 {
			var row []graph.Pair
			if rt.jd != nil {
				row = rt.ledger.Pairs(p.id)
			}
			s.Rows = append(s.Rows, row)
			s.OracleOK = append(s.OracleOK, p.oracleOK.Load())
		}
	}
	for _, sh := range rt.shards {
		s.Ready = append(s.Ready, sh.ready)
		lap := make([]ref.Ref, len(sh.pids))
		for i, idx := range sh.pids {
			lap[i] = rt.procs[idx].id
		}
		s.Laps = append(s.Laps, lap)
	}
	s.Components = rt.initially
	return s
}
