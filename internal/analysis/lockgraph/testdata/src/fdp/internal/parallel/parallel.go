// Fixture: package path fdp/internal/parallel is the scope of the
// oracle-serialization rule, and the Runtime shape mirrors the real sharded
// one (DESIGN.md §12): pausers take freezeMu and then every shard's action
// lock in pauseAll and give them back in resumeAll, the one handoff pair
// the pairing rule sanctions — inferred from the two summaries, with no
// directive on either half.
package parallel

import (
	"sync"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

type shard struct {
	actMu sync.RWMutex
	mbMu  sync.Mutex //fdp:lockleaf
}

type Runtime struct {
	freezeMu sync.Mutex
	oracleMu sync.Mutex //fdp:lockleaf
	exitMu   sync.Mutex //fdp:lockleaf
	sh       *shard
	oracle   sim.Oracle
	world    *sim.World
}

// pauseAll directly locks exactly the set resumeAll releases without
// acquiring: the sanctioned handoff, both halves.
func (rt *Runtime) pauseAll() {
	rt.freezeMu.Lock()
	rt.sh.actMu.Lock()
}

func (rt *Runtime) resumeAll() {
	rt.sh.actMu.Unlock()
	rt.freezeMu.Unlock()
}

// The §12-conforming shape: the pause held through the deferred resumeAll,
// one leaf inside, Evaluate under oracleMu, everything deferred.
func (rt *Runtime) validate(u ref.Ref) bool {
	rt.pauseAll()
	defer rt.resumeAll()
	rt.oracleMu.Lock()
	defer rt.oracleMu.Unlock()
	return rt.oracle.Evaluate(rt.world, u)
}

// Lexical release is as good as a deferred one.
func (rt *Runtime) coordinate(u ref.Ref) bool {
	rt.oracleMu.Lock()
	ok := rt.oracle.Evaluate(rt.world, u)
	rt.oracleMu.Unlock()
	return ok
}

// A lexical resumeAll closes the pause like a lexical Unlock.
func (rt *Runtime) stop() {
	rt.pauseAll()
	rt.world.Steps = 0
	rt.resumeAll()
}

// Sequential leaf use is fine: the first leaf is released before the next.
func (rt *Runtime) leafHandoff() {
	rt.sh.mbMu.Lock()
	rt.sh.mbMu.Unlock()
	rt.exitMu.Lock()
	rt.exitMu.Unlock()
}

func (rt *Runtime) unguarded(u ref.Ref) bool {
	return rt.oracle.Evaluate(rt.world, u) // want `oracle.Evaluate outside an oracleMu critical section.*path: unguarded \(parallel/parallel.go:\d+\)`
}

// Holding some other lock is not holding oracleMu.
func (rt *Runtime) wrongLock(u ref.Ref) bool {
	rt.exitMu.Lock()
	defer rt.exitMu.Unlock()
	return rt.oracle.Evaluate(rt.world, u) // want "outside an oracleMu critical section"
}

// leakyRebalance returns between the pause and the deferred resume: the
// world stays frozen for good. The held locks arrived through pauseAll's
// escaping acquisition, and the path says so.
func (rt *Runtime) leakyRebalance(skip bool) {
	rt.pauseAll()
	if skip {
		return // want `return while holding parallel.Runtime.freezeMu, parallel.shard.actMu with no deferred release.*path: leakyRebalance \(parallel/parallel.go:\d+\) → pauseAll \(parallel/parallel.go:\d+\)`
	}
	defer rt.resumeAll()
	rt.world.Steps = 0
}

// pauseVia leaves the pause held without locking anything itself: only a
// direct acquirer is a handoff half, a wrapper is a leak.
func (rt *Runtime) pauseVia() {
	rt.pauseAll() // want "parallel.Runtime.freezeMu, parallel.shard.actMu locked but never released in this function"
}

// halfPause leaves a set no function releases.
func (rt *Runtime) halfPause() {
	rt.freezeMu.Lock() // want "parallel.Runtime.freezeMu locked but never released in this function"
}
