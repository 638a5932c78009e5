package parallel_test

import (
	"slices"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/diffval"
	"fdp/internal/oracle"
	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// lapCount is what a seeded run on the rt_sparse shape did up to its last
// exit: timeouts per process and sends per exit.
type lapCount struct {
	timeoutsPerN, sendsPerExit float64
	legit, intact              bool
}

// sparseLapRun builds the rt_sparse shape — churn.Build plus MirrorWorld,
// n = 10,000 on a random topology, 2 % leaving under SINGLE, on 2 shards —
// from seed, runs it with RunSeeded from the same seed until it is
// legitimate, and counts the timeouts and sends executed before the last
// exit committed. The counts are a function of the seed.
func sparseLapRun(tb testing.TB, seed int64) lapCount {
	tb.Helper()
	const n = 10000
	s := churn.Build(churn.Config{N: n, Topology: churn.TopoRandom, LeaveFraction: 0.02,
		Pattern: churn.LeaveRandom, Variant: core.VariantFDP, Oracle: oracle.Single{}, Seed: seed})
	rt := onShards(2, func() *parallel.Runtime { return diffval.MirrorWorld(s.World, oracle.Single{}) })
	leavers := len(s.LeavingNodes())
	granted := 0
	var timeouts, sends uint64
	rt.SetOracleHook(func(_ ref.Ref, ok bool) {
		if ok {
			if granted++; granted == leavers {
				timeouts, sends = rt.KindCount(sim.EvTimeout), rt.Sent()
			}
		}
	})
	legit := func(w *sim.World) bool { return w.Legitimate(sim.FDP) }
	ok := rt.RunSeeded(seed, legit, time.Millisecond, time.Second)
	if granted != leavers {
		tb.Fatalf("seed %d: %d of %d leavers exited", seed, granted, leavers)
	}
	final := rt.Freeze()
	return lapCount{
		timeoutsPerN: float64(timeouts) / n,
		sendsPerExit: float64(sends) / float64(leavers),
		legit:        ok && final.Legitimate(sim.FDP),
		intact:       final.RelevantComponentsIntact(),
	}
}

// TestSeededSparseLapServesDeparturesFirst: on the rt_sparse shape a
// departure waits for the timeouts of its leaver and of the leaver's
// neighbours, and seal puts those at the front of every shard's lap. So the
// last exit comes after fewer than 0.5·n timeouts (one lap of each of the
// two shards) and fewer than 40 sends per exit, on every seed. With the lap
// in reference order the same runs took 1.04–1.06·n timeouts and 118–397
// sends per exit.
func TestSeededSparseLapServesDeparturesFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight n = 10,000 worlds")
	}
	for seed := int64(1); seed <= 8; seed++ {
		c := sparseLapRun(t, seed)
		t.Logf("seed %d: %.3f·n timeouts, %.1f sends per exit before the last exit", seed, c.timeoutsPerN, c.sendsPerExit)
		if !c.intact || !c.legit {
			t.Fatalf("seed %d: relevant components intact %v, legitimate %v", seed, c.intact, c.legit)
		}
		if c.timeoutsPerN >= 0.5 {
			t.Errorf("seed %d: %.3f·n timeouts before the last exit, want fewer than 0.5·n", seed, c.timeoutsPerN)
		}
		if c.sendsPerExit >= 40 {
			t.Errorf("seed %d: %.1f sends per exit before the last exit, want fewer than 40", seed, c.sendsPerExit)
		}
	}
}

// BenchmarkSeededSparseLap reports, for one seeded run of the rt_sparse
// shape per iteration (seed 1 + i), the timeouts executed before the last
// exit per process and the sends per exit. Both are exact per seed: the
// time per op is the price of building and running the world, the custom
// metrics are the protocol's cost.
func BenchmarkSeededSparseLap(b *testing.B) {
	var timeouts, sends float64
	for i := 0; i < b.N; i++ {
		c := sparseLapRun(b, int64(1+i))
		if !c.intact || !c.legit {
			b.Fatalf("seed %d: relevant components intact %v, legitimate %v", 1+i, c.intact, c.legit)
		}
		timeouts += c.timeoutsPerN
		sends += c.sendsPerExit
	}
	b.ReportMetric(timeouts/float64(b.N), "timeouts/n")
	b.ReportMetric(sends/float64(b.N), "sends/exit")
}

// TestLapOrderServesDeparturesFirst seals the rt_sparse shape (n = 2,000)
// and a half-leaving world on three shards, handed over and recounted.
// Under SINGLE each shard's lap must be a permutation of its processes
// whose front holds exactly its live leavers and the processes in their
// ledger rows, and both the front and the rest must keep reference order.
// Under NIDEC, which keeps no rows, every lap stays in reference order.
func TestLapOrderServesDeparturesFirst(t *testing.T) {
	for _, leave := range []float64{0.02, 0.5} {
		s := churn.Build(churn.Config{N: 2000, Topology: churn.TopoRandom, LeaveFraction: leave,
			Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 5})
		for _, orc := range []parallel.Oracle{oracle.Single{}, oracle.NIDEC{}} {
			for _, build := range []func(*sim.World, parallel.Oracle) *parallel.Runtime{diffval.MirrorWorld, mirrorByHand} {
				rt := onShards(3, func() *parallel.Runtime { return build(s.World, orc) })
				parallel.Seal(rt)
				st := parallel.SealedState(rt)
				_, single := orc.(oracle.Single)
				// What belongs at the front: every leaver and every member
				// of a leaver's row. Rows are per live process in reference
				// order, as Refs lists them (nothing is gone yet).
				refs := s.World.Refs()
				first := map[ref.Ref]bool{}
				for i, r := range refs {
					if single && s.World.ModeOf(r) == sim.Leaving {
						first[r] = true
						for _, e := range st.Rows[i] {
							first[e.Key] = true
						}
					}
				}
				fronts := 0
				for k, lap := range st.Laps {
					var front, rest []ref.Ref
					for _, r := range refs {
						switch {
						case ref.Index(r)%len(st.Laps) != k:
						case first[r]:
							front = append(front, r)
						default:
							rest = append(rest, r)
						}
					}
					if want := append(front, rest...); !slices.Equal(lap, want) {
						t.Fatalf("leave=%v %s: shard %d's lap is %v, want %d front then %d in reference order: %v",
							leave, orc.Name(), k, lap, len(front), len(rest), want)
					}
					fronts += len(front)
				}
				if single && leave < 0.1 && (fronts == 0 || fronts == len(refs)) {
					t.Fatalf("leave=%v: %d of %d processes at the front: the order shows nothing", leave, fronts, len(refs))
				}
			}
		}
	}
}
