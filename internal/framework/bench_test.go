package framework

import (
	"testing"

	"fdp/internal/app"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/sim"
)

// BenchmarkWrapperStep prices one step (scheduler pick plus World.Execute)
// of P′ over the routed sorted list at n = 32 while 30 % of the processes
// leave: overlay_lookup's world without its lookups. A fresh scenario
// replaces the world every 4000 steps, before it converges, so every
// measured step is one of a departure in progress; the rebuild is not
// timed.
func BenchmarkWrapperStep(b *testing.B) {
	const n, perWorld = 32, 4000
	var (
		w     *sim.World
		sched sim.Scheduler
		seed  int64
	)
	fresh := func() {
		seed++
		w = Build(Config{
			N: n, LeaveFraction: 0.3, Oracle: oracle.Single{}, Seed: seed, ExtraEdges: n / 2,
			MakeOverlay: func(keys overlay.Keys) overlay.Protocol { return app.NewRoutedList(keys) },
		}).World
		sched = sim.NewRandomScheduler(seed, 512)
	}
	fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, ok := sched.Next(w)
		if !ok || w.Steps() == perWorld {
			b.StopTimer()
			fresh()
			b.StartTimer()
			continue
		}
		w.Execute(a)
	}
}
