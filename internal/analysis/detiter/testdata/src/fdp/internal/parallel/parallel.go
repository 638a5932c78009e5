// Fixture: package path fdp/internal/parallel is a deterministic package —
// a shard iteration runs on the time it is given, so a seeded run replays
// byte for byte; only the wall-clock drivers read the clock, each read
// under an ignore directive.
package parallel

import "time"

type shard struct{ nextTO time.Duration }

// An iteration that reads the clock itself cannot be replayed on a virtual
// clock.
func (sh *shard) iterate() bool {
	_ = time.Now() // want "time.Now reads the wall clock in a deterministic package"
	return false
}

// The wall-clock driver is where the clock is read, and says so.
func (sh *shard) worker() {
	start := time.Now() //fdplint:ignore detiter the wall-clock driver reads the clock
	_ = start
}
