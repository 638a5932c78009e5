// Lookup availability under churn: a DHT-style greedy lookup layer runs on
// top of the maintained sorted list while a third of the nodes leave. The
// departure framework keeps the staying overlay intact, so once departures
// finish, every lookup among staying keys succeeds again.
package main

import (
	"fmt"
	"log"

	"fdp/internal/app"
	"fdp/internal/churn"
	"fdp/internal/framework"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/sim"
)

func main() {
	const n = 16
	sc := framework.Of(churn.Build(churn.Config{
		N: n, Topology: churn.TopoRandom, LeaveFraction: 0.3, Oracle: oracle.Single{}, Seed: 4,
		Overlay: framework.Factory(func(keys overlay.Keys) overlay.Protocol { return app.NewRoutedList(keys) }),
	}))
	sched := sim.NewRandomScheduler(4, 512)
	staying := sc.StayingNodes()

	launch := func() int {
		for i, from := range staying {
			target := staying[(i+len(staying)/2)%len(staying)]
			sc.World.Enqueue(from, sim.Message{
				Label:   app.LabelRoute,
				Refs:    []sim.RefInfo{{Ref: from, Mode: sim.Staying}},
				Payload: app.RoutePayload{TargetKey: sc.Keys[target], TTL: 4 * n},
			})
		}
		return len(staying)
	}
	totals := func() (delivered, failed int) {
		for _, r := range staying {
			st := sc.Wrappers[r].Overlay().(*app.Routed).Stats()
			delivered += st.Delivered
			failed += st.Failed
		}
		return
	}
	run := func(steps int) {
		for i := 0; i < steps; i++ {
			a, ok := sched.Next(sc.World)
			if !ok {
				return
			}
			sc.World.Execute(a)
		}
	}

	fmt.Println("Greedy lookups over the wrapped sorted list, 30% of nodes leaving")

	// Mid-churn lookups.
	run(5 * n)
	launched := launch()
	sim.Run(sc.World, sched, sim.RunOptions{Variant: sim.FDP, CheckEvery: n, Target: sc.Scenario.InTarget})
	d1, f1 := totals()
	fmt.Printf("  during departures: %d launched, %d delivered, %d failed, %d lost\n",
		launched, d1, f1, launched-d1-f1)

	// Post-convergence lookups: full availability.
	launched2 := launch()
	run(400 * n)
	d2, f2 := totals()
	d2, f2 = d2-d1, f2-f1
	fmt.Printf("  after convergence: %d launched, %d delivered, %d failed\n", launched2, d2, f2)
	if d2 != launched2 {
		log.Fatal("post-convergence lookups must all succeed")
	}
	fmt.Println("OK: the application regains full lookup availability after safe departures.")
}
