package parallel_test

import (
	"bytes"
	"testing"
	"time"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/parallel"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// seededRun builds a 24-process FDP churn world on the given shard count,
// runs it with RunSeeded from seed until it is legitimate, and returns its
// journal. The run must converge with every leaver gone and the relevant
// processes still connected (Lemmas 2 and 3), and its journal must join
// with no causal problem.
func seededRun(t *testing.T, o parallel.Oracle, shards int, build, seed int64) []byte {
	t.Helper()
	rt, _, leaving := parallel.BuildShardedRuntime(24, 0.5, build, core.VariantFDP, o, shards)
	var journal bytes.Buffer
	jw := trace.NewWriter(&journal, trace.Header{Version: trace.Version, Engine: trace.EngineRuntime})
	rt.AddEventHook(jw.Record)
	legit := func(w *sim.World) bool { return w.Legitimate(sim.FDP) }
	if !rt.RunSeeded(seed, legit, time.Millisecond, 10*time.Second) {
		t.Fatalf("shards=%d build=%d seed=%d: no convergence (gone %d of %d)", shards, build, seed, rt.Gone(), leaving.Len())
	}
	if rt.Gone() != uint64(leaving.Len()) {
		t.Fatalf("shards=%d build=%d seed=%d: %d of %d leavers exited", shards, build, seed, rt.Gone(), leaving.Len())
	}
	if !rt.Freeze().RelevantComponentsIntact() {
		t.Fatalf("shards=%d build=%d seed=%d: relevant processes disconnected", shards, build, seed)
	}
	// The journal's lane buffers reach it at Err.
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	j, err := trace.Join([]trace.Header{hdr}, [][]trace.Record{recs})
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Problems) > 0 {
		t.Fatalf("shards=%d build=%d seed=%d: journal does not join: %v", shards, build, seed, j.Problems)
	}
	return journal.Bytes()
}

// TestRuntimeIsDeterministic holds RunSeeded to byte-identical journals over
// 10 seeds on 2, 3 and 4 shards: under SINGLE, whose exits the workers
// commit, and under NIDEC, whose exits wait for the frozen-world epoch. The
// seed, not the build alone, picks the schedule: another seed on the same
// build records another journal.
func TestRuntimeIsDeterministic(t *testing.T) {
	for _, o := range []parallel.Oracle{oracle.Single{}, oracle.NIDEC{}} {
		for shards := 2; shards <= 4; shards++ {
			for seed := int64(1); seed <= 10; seed++ {
				first := seededRun(t, o, shards, seed, seed)
				if again := seededRun(t, o, shards, seed, seed); !bytes.Equal(first, again) {
					t.Fatalf("%s shards=%d seed=%d: two runs recorded different journals", o.Name(), shards, seed)
				}
				if seed == 1 && bytes.Equal(first, seededRun(t, o, shards, seed, seed+100)) {
					t.Fatalf("%s shards=%d: another seed recorded the same journal", o.Name(), shards)
				}
			}
		}
	}
}

// TestLaneCausalIDsAscend holds every lane of a seeded run to ascending
// causal ids: a shard's events, exits included, are stamped from its own
// block of ids, by its worker or by a pauser while the worker is stopped, so
// on each lane every event's id exceeds the one emitted before it.
func TestLaneCausalIDsAscend(t *testing.T) {
	for shards := 2; shards <= 4; shards++ {
		for seed := int64(1); seed <= 5; seed++ {
			rt, _, leaving := parallel.BuildShardedRuntime(48, 0.5, seed, core.VariantFDP, oracle.Single{}, shards)
			last := map[uint8]uint64{}
			exits := 0
			rt.AddEventHook(func(e sim.Event) {
				if e.Kind == sim.EvExit {
					exits++
				}
				if prev := last[e.Lane]; e.CID <= prev {
					t.Errorf("shards=%d seed=%d: lane %d emitted %v of %v with cid %d after cid %d",
						shards, seed, e.Lane, e.Kind, e.Proc, e.CID, prev)
				}
				last[e.Lane] = e.CID
			})
			gone := func(*sim.World) bool { return rt.Gone() == uint64(leaving.Len()) }
			if !rt.RunSeeded(seed, gone, time.Millisecond, 10*time.Second) {
				t.Fatalf("shards=%d seed=%d: %d of %d leavers exited", shards, seed, rt.Gone(), leaving.Len())
			}
			if exits != leaving.Len() {
				t.Fatalf("shards=%d seed=%d: %d exits emitted, want %d", shards, seed, exits, leaving.Len())
			}
			if t.Failed() {
				return
			}
		}
	}
}

// TestWorkersCommitEverySingleExit: under SINGLE nothing sleeps and no
// stayer asks to exit, so every exit of a churn run is committed by its own
// worker, in the action that asked for it, and none waits for an epoch's
// pause.
func TestWorkersCommitEverySingleExit(t *testing.T) {
	for _, leave := range []float64{0.5, 0.02} {
		for seed := int64(1); seed <= 4; seed++ {
			rt, _, leaving := parallel.BuildShardedRuntime(2000, leave, seed, core.VariantFDP, oracle.Single{}, 2)
			gone := func(*sim.World) bool { return rt.Gone() == uint64(leaving.Len()) }
			if !rt.RunSeeded(seed, gone, time.Millisecond, 30*time.Second) {
				t.Fatalf("leave=%v seed=%d: %d of %d leavers exited", leave, seed, rt.Gone(), leaving.Len())
			}
			var commits uint64
			for i := 0; i < rt.Shards(); i++ {
				commits += rt.ShardTraffic(i).ExitCommits
			}
			if commits != rt.Gone() {
				t.Fatalf("leave=%v seed=%d: workers committed %d of %d exits", leave, seed, commits, rt.Gone())
			}
		}
	}
}
