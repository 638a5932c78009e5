// Package lockdep is the dependency half of the two-package lockgraph
// fixture: it declares mutexes whose annotations and function summaries
// must flow to the dependent package (lockuse) as facts.
package lockdep

import "sync"

// MuA is acquired both directly and through WithA by the dependent package.
var MuA sync.Mutex

// WithA runs f with MuA held. Its summary (acquires lockdep.MuA) is
// exported as an object fact; lockuse calling it under its own mutex must
// produce a cross-package edge.
func WithA(f func()) {
	MuA.Lock()
	f()
	MuA.Unlock()
}

// Guard carries a leaf-annotated mutex.
type Guard struct {
	mu sync.Mutex //fdp:lockleaf
}

// Hold acquires the leaf and leaks the acquisition to the caller.
func (g *Guard) Hold() { g.mu.Lock() }

// Release balances Hold.
func (g *Guard) Release() { g.mu.Unlock() }

// bad acquires another mutex under the leaf: diagnosed in this package.
func bad(g *Guard) {
	g.mu.Lock()
	MuA.Lock() // want "acquiring lockdep.MuA while holding lockdep.Guard.mu violates its //fdp:lockleaf declaration"
	MuA.Unlock()
	g.mu.Unlock()
}

var _ = bad

// Ring mirrors the flight recorder (trace.Flight): a //fdp:lockleaf mutex
// guarding a bounded ring, held for the copy only.
type Ring struct {
	mu  sync.Mutex //fdp:lockleaf
	buf []int
}

// Push is the conforming hot-path shape: lock, write, unlock — nothing
// acquired underneath.
func (r *Ring) Push(v int) {
	r.mu.Lock()
	r.buf = append(r.buf, v)
	r.mu.Unlock()
}

// Hold and ReleaseRing expose an escaping acquisition of the ring leaf for
// the cross-package half of the fixture.
func (r *Ring) Hold() { r.mu.Lock() }

// ReleaseRing balances Hold.
func (r *Ring) ReleaseRing() { r.mu.Unlock() }

// renderLocked renders (acquires MuA) inside the ring's critical section:
// the regression the leaf declaration exists to catch.
func renderLocked(r *Ring) {
	r.mu.Lock()
	MuA.Lock() // want "acquiring lockdep.MuA while holding lockdep.Ring.mu violates its //fdp:lockleaf declaration"
	MuA.Unlock()
	r.mu.Unlock()
}

var _ = renderLocked

// Registry mirrors obs.Registry and the journal writers: a //fdp:lockleaf
// registration mutex taken briefly with a deferred release, next to a
// second lock used only in separate phases. The shapes below are the
// nested-acquisition cases internal/obs and internal/trace must never
// regress into, stated against the leaf declaration.
type Registry struct {
	mu       sync.Mutex //fdp:lockleaf
	renderMu sync.RWMutex
	metrics  map[string]int
}

// lookup is the conforming leaf shape: one lock, deferred release.
func (r *Registry) lookup(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// render takes the second lock's read side.
func (r *Registry) render() int {
	r.renderMu.RLock()
	defer r.renderMu.RUnlock()
	return len(r.metrics)
}

// twoPhases is not nesting: the leaf is released before the second lock
// is taken.
func (r *Registry) twoPhases(name string) int {
	r.mu.Lock()
	v := r.metrics[name]
	r.mu.Unlock()
	r.renderMu.RLock()
	v++
	r.renderMu.RUnlock()
	return v
}

// compose calls acquirers with nothing held: the intended composition.
func (r *Registry) compose() int { return r.render() + r.lookup("x") }

// hooks registers a literal under the leaf; the literal takes its locks
// when it later runs, so this is not nesting either.
func (r *Registry) hooks() func() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return func() int { return r.render() }
}

// reentrant re-acquires the leaf it still holds through the deferred
// release: a self-deadlock.
func (r *Registry) reentrant() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mu.Lock() // want "acquiring lockdep.Registry.mu while holding lockdep.Registry.mu violates its //fdp:lockleaf declaration"
	r.mu.Unlock()
}

// transitiveNesting reaches the second lock's read side through a method
// call while the deferred release keeps the leaf held.
func (r *Registry) transitiveNesting() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.render() // want "acquiring lockdep.Registry.renderMu while holding lockdep.Registry.mu violates its //fdp:lockleaf declaration"
}

// lookupTwice re-enters the leaf through a method of the same receiver —
// the journal writer's record-then-flush-under-the-lock regression.
func (r *Registry) lookupTwice(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name) // want "acquiring lockdep.Registry.mu while holding lockdep.Registry.mu violates its //fdp:lockleaf declaration"
}

// snapshot is the conforming flight-ring read: copy out under the ring
// leaf, render (which locks) after release.
func (r *Ring) snapshot(reg *Registry) int {
	r.mu.Lock()
	n := len(r.buf)
	r.mu.Unlock()
	return n + reg.render()
}

// snapshotLocked renders through a method on another object inside the
// ring's critical section: the shape Flight.Snapshot must never regress to.
func (r *Ring) snapshotLocked(reg *Registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf) + reg.render() // want "acquiring lockdep.Registry.renderMu while holding lockdep.Ring.mu violates its //fdp:lockleaf declaration"
}

// --- pairing: every mutex is released on all paths -----------------------

// Table is any struct with guarded state, in any package: the pairing rule
// is not scoped to the runtime.
type Table struct {
	mu  sync.RWMutex
	aux sync.Mutex
	m   map[string]int
}

// leakOnReturn returns inside the critical section.
func (t *Table) leakOnReturn(skip bool) {
	t.mu.Lock()
	if skip {
		return // want `return while holding lockdep.Table.mu with no deferred release.*path: leakOnReturn \(lockdep/lockdep.go:\d+\)`
	}
	t.mu.Unlock()
}

// leakPkgLevel is the same leak on a package-level mutex.
func leakPkgLevel(skip bool) int {
	MuA.Lock()
	if skip {
		return 0 // want "return while holding lockdep.MuA with no deferred release"
	}
	MuA.Unlock()
	return 1
}

// neverReleased has no function releasing exactly {Table.mu} to pair with.
func (t *Table) neverReleased() {
	t.mu.Lock() // want "lockdep.Table.mu locked but never released in this function"
}

// releaseWithoutAcquire has no function leaving exactly {Table.aux} held.
func (t *Table) releaseWithoutAcquire() {
	t.aux.Unlock() // want "lockdep.Table.aux released without a preceding acquisition in this function"
}

// branchRelease is the branch-local-release idiom: every path unlocks, and
// the second RUnlock is not the release of a lock never taken.
func (t *Table) branchRelease(key string) bool {
	t.mu.RLock()
	if _, ok := t.m[key]; !ok {
		t.mu.RUnlock()
		return false
	}
	t.mu.RUnlock()
	return true
}

// deferredRelease covers every return below it.
func (t *Table) deferredRelease(key string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if v, ok := t.m[key]; ok {
		return v
	}
	return -1
}

// releaseInResult calls the releasing half in the return statement's own
// results: the return is judged after them.
func releaseInResult(g *Guard) int {
	g.Hold()
	return unlockAndCount(g)
}

func unlockAndCount(g *Guard) int {
	g.Release()
	return 1
}

var (
	_ = leakPkgLevel
	_ = releaseInResult
)
