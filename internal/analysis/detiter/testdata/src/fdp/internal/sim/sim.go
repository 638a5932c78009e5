// Fixture: package path fdp/internal/sim is a deterministic package, so
// unsorted map ranges, global randomness and wall-clock reads are flagged.
package sim

import (
	"math/rand"
	"sort"
	"time"

	"fdp/internal/ref"
)

func scheduleOver(m map[ref.Ref]int) int {
	total := 0
	for _, v := range m { // want "range over map is iteration-order nondeterministic"
		total += v
	}
	return total
}

// Exemption (a): a single-statement map copy is order-insensitive.
func copyStats(src map[string]uint64) map[string]uint64 {
	dst := make(map[string]uint64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Exemption (b): collect-then-sort, via ref.Sort …
func sortedRefs(s map[ref.Ref]struct{}) []ref.Ref {
	out := make([]ref.Ref, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	ref.Sort(out)
	return out
}

// … and via the sort package.
func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Collecting without sorting leaks iteration order into the result.
func unsortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m { // want "range over map is iteration-order nondeterministic"
		keys = append(keys, k)
	}
	return keys
}

func globalDraws() int {
	n := rand.Intn(10)         // want "rand.Intn draws from the process-global generator"
	_ = rand.Float64()         // want "rand.Float64 draws from the process-global generator"
	_ = rand.Perm(n)           // want "rand.Perm draws from the process-global generator"
	return n
}

// Seeded generators are the sanctioned randomness.
func seededDraws(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	if rng.Float64() > 0.5 {
		return rng.Intn(10)
	}
	return 0
}

func wallClock() time.Duration {
	start := time.Now() // want "time.Now reads the wall clock in a deterministic package"
	time.Sleep(1) // want "time.Sleep reads the wall clock in a deterministic package"
	return time.Since(start) // want "time.Since reads the wall clock in a deterministic package"
}

// Suppression with a reason is honoured.
func orderInsensitive(m map[int]int) int {
	max := 0
	//fdplint:ignore detiter max of a map is order-insensitive
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}
