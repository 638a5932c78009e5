package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. The sizing host is a guest whose physical cores
// are shared: when a neighbour runs on a core's other hardware thread,
// every throughput-bound instruction stream on it slows by 1.3-1.8x, in
// bursts of 30-150 ms whose density drifts over minutes, and the clock moves
// between turbo steps besides. Run medians of every timing followed that
// drift (8-28% spread over ten runs, up to 60% range, and 27-37% between
// one quarter of an hour and the next; README, "Repeatability") while a
// register-only loop read the same drift. So the benchmark times that loop
// beside every timed window, never inside one, and reports each timing as it
// would read on a core that runs the loop at refNsPerIter: as measured x
// refNsPerIter / (the loop's speed beside the window).

// refNsPerIter is the reference speed of the calibration kernel: what the
// sizing host's unshared core reads (4 cycles an iteration at 3 GHz). It is
// a constant, not the run's own fastest reading, because that estimate
// moved by 3.5% with the turbo step the run happened to catch.
const refNsPerIter = 4.0 / 3.0

// spin is the calibration kernel: six independent register-only dependency
// chains, so that like ordinary code it is bound by issue slots, which a
// busy sibling thread takes away. (A single dependent chain is
// latency-bound and does not notice the sibling: it read the same +-2%
// whatever the host did.) It touches no memory, so only the core's sharing
// and clock move it.
//
//go:noinline
func spin(n int) uint64 {
	var a, b, c, d, e, f uint64 = 1, 2, 3, 4, 5, 6
	for i := 0; i < n; i++ {
		a += uint64(i) ^ b
		b += a >> 3
		c = c*3 + 1
		d ^= c + uint64(i)
		e += d & 0xff
		f = f*5 + e
	}
	return a + b + c + d + e + f
}

var spinSink uint64 // keeps spin's results alive

// spinIters is one reading's work on each core: ~1.4 ms at the reference
// speed.
const spinIters = 1 << 20

// hostSpeed takes one reading: ns per spin iteration right now, the mean
// over every core spinning at once. Called on the trial goroutine, outside
// timed windows.
func hostSpeed() float64 {
	procs := runtime.GOMAXPROCS(0)
	ns, outs := make([]float64, procs), make([]uint64, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := time.Now()
			outs[g] = spin(spinIters)
			ns[g] = float64(time.Since(start)) / spinIters
		}(g)
	}
	wg.Wait()
	total := 0.0
	for g := range ns {
		total += ns[g]
		spinSink += outs[g]
	}
	return total / float64(procs)
}

// window is the calibration of one timed window: the readings taken just
// before and just after it.
type window struct{ before, after float64 }

// scale is the factor that takes a duration measured in the window to the
// reference core's speed.
func (w window) scale() float64 {
	return refNsPerIter / ((w.before + w.after) / 2)
}
