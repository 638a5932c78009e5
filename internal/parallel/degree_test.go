package parallel

import (
	"testing"
	"time"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// TestIncrementalDegreeMatchesFrozenWorld pauses a running churn system at
// random moments and checks, for every live leaver, that the incremental
// neighbor multiset (degree.go) reports exactly the frozen world's
// RelevantDegree — the quantity the epoch fast path judges exits on — and,
// per neighbor, exactly as many edges as the frozen process graph holds
// between the two. A mid-run Mutate injects junk in-flight references and
// rewrites stored references behind the ledger's back to exercise the reseed
// path as well, in a world that already has gone processes: a last-synced
// snapshot left stale there makes a struck process's next action count the
// change a second time. One extra leaver is pinned by two inert holders until
// the strike releases it, so SINGLE cannot grant it and the run cannot end
// before the strike has fired, however fast the machine gets through it.
func TestIncrementalDegreeMatchesFrozenWorld(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rt, nodes, leaving := buildShardedRuntime(512, 0.5, 41, core.VariantFDP, oracle.Single{}, shards)
		held := ref.ByIndex(len(nodes))
		pins := [2]*fixedRefsProto{{refs: []ref.Ref{held}}, {refs: []ref.Ref{held}}}
		rt.AddProcess(held, sim.Leaving, core.New(core.VariantFDP))
		for i, pin := range pins {
			rt.AddProcess(ref.ByIndex(len(nodes)+1+i), sim.Staying, pin)
		}
		total := uint64(leaving.Len()) + 1
		rt.Start()
		if !rt.trackDeg {
			t.Fatal("Single must enable degree tracking")
		}
		deadline := time.Now().Add(20 * time.Second)
		checks, struck := 0, false
		for time.Now().Before(deadline) {
			if rt.Gone() == total && checks > 0 {
				break
			}
			if !struck && rt.Gone() > 3 && checks >= 2 {
				// Junk in-flight references, one stored reference added and
				// the pins' dropped, mid-run: Mutate must reseed the counters
				// to match.
				rt.Mutate(func(v *MutableView) {
					live := v.Live()
					for i := 0; i < 5 && i < len(live); i++ {
						v.Enqueue(live[i], sim.NewMessage("junk",
							sim.RefInfo{Ref: nodes[(i*7)%len(nodes)], Mode: sim.Staying}))
					}
					pins[0].refs, pins[1].refs = nil, nil
					struck = storeUnknownLeaver(v, live)
				})
			}
			checks++
			rt.pauseAll()
			w := rt.freezeUnderPause()
			pg := w.PG()
			for _, p := range rt.leavers {
				if p.life.Load() == 2 {
					continue
				}
				want, rel := w.RelevantDegree(p.id)
				if !rel {
					rt.resumeAll()
					t.Fatalf("shards=%d: live leaver %v not relevant in frozen world", shards, p.id)
				}
				if got := len(p.nbr); got != want {
					rt.resumeAll()
					t.Fatalf("shards=%d: leaver %v incremental degree %d, frozen world says %d (checks=%d)",
						shards, p.id, got, want, checks)
				}
				for pid, got := range p.nbr {
					q := rt.byPid[pid].id
					if want := pg.EdgeCount(p.id, q) + pg.EdgeCount(q, p.id); int(got) != want {
						rt.resumeAll()
						t.Fatalf("shards=%d: ledger holds %d edges between %v and %v, frozen world %d (checks=%d)",
							shards, got, p.id, q, want, checks)
					}
				}
			}
			rt.resumeAll()
			time.Sleep(500 * time.Microsecond)
		}
		rt.Stop()
		if rt.Gone() != total {
			t.Fatalf("shards=%d: only %d/%d exits", shards, rt.Gone(), total)
		}
		if checks < 3 {
			t.Fatalf("shards=%d: too few mid-run checks (%d)", shards, checks)
		}
		if !struck {
			t.Fatalf("shards=%d: strike never fired", shards)
		}
	}
}

// storeUnknownLeaver makes the first live staying process that stores no
// reference of some live leaver store one, and reports whether it found such
// a pair.
func storeUnknownLeaver(v *MutableView, live []ref.Ref) bool {
	for _, x := range live {
		p, ok := v.ProtocolOf(x).(*core.Proc)
		if !ok || v.ModeOf(x) != sim.Staying {
			continue
		}
		stored := p.Neighbors()
		for _, l := range live {
			if _, has := stored[l]; !has && v.ModeOf(l) == sim.Leaving {
				p.SetNeighbor(l, sim.Staying)
				return true
			}
		}
	}
	return false
}

// TestEpochFastPathJudgesExits asserts the fast path actually runs (no
// frozen world needed) and still refuses unsafe exits: with Always(false)
// no process may ever leave — and none is ever put on a ready list — with
// Single everyone must.
func TestEpochFastPathJudgesExits(t *testing.T) {
	rt, _, _ := buildRuntime(12, 0.5, 7, core.VariantFDP, oracle.Always(false))
	rt.Start()
	if !rt.trackDeg {
		t.Fatal("Always must enable degree tracking")
	}
	time.Sleep(50 * time.Millisecond)
	rt.Stop()
	if rt.Gone() != 0 {
		t.Fatalf("Always(false) under the fast path let %d exits through", rt.Gone())
	}
	if rt.Epochs() == 0 {
		t.Fatal("coordinator never ran an epoch")
	}
	for _, sh := range rt.shards {
		if len(sh.ready) != 0 {
			t.Fatalf("Always(false) put %d processes on shard %d's ready list", len(sh.ready), sh.idx)
		}
	}
}

// TestReadyLeaverOvertakesTheScan drives one shard by hand — no worker, no
// coordinator, so every step is deterministic. A leaver sits right behind
// the timeout cursor when an epoch turns its verdict true: it must time out
// first in the next round and be gone after the following epoch, long before
// the scan has served every other process once; a Rebalance in between must
// neither lose it nor run it twice.
func TestReadyLeaverOvertakesTheScan(t *testing.T) {
	const others = 4 * timeoutBudget
	space := ref.NewSpace()
	nodes := space.NewN(others + 1)
	leaver, anchor := nodes[0], nodes[1]
	rt := NewRuntime(oracle.Single{})
	rt.SetShards(1)
	lp := core.New(core.VariantFDP)
	lp.SetAnchor(anchor, sim.Staying) // degree 1: SINGLE grants at the first epoch
	rt.AddProcess(leaver, sim.Leaving, lp)
	for _, r := range nodes[1:] {
		rt.AddProcess(r, sim.Staying, &fixedRefsProto{})
	}
	var order []ref.Ref // who timed out, in order
	exited := false
	rt.AddEventHook(func(e sim.Event) {
		switch e.Kind {
		case sim.EvTimeout:
			order = append(order, e.Proc)
		case sim.EvExit:
			exited = e.Proc == leaver
		}
	})
	rt.seal()
	sh, p := rt.shards[0], rt.procs[leaver]
	sh.cursor = 1 // the scan has just passed the leaver (pid 0)

	rt.epochFast(oracle.Single{})
	if !p.oracleOK.Load() || !p.ready || len(sh.ready) != 1 {
		t.Fatalf("epoch did not queue the leaver: oracleOK=%v ready=%v list=%v", p.oracleOK.Load(), p.ready, sh.ready)
	}
	rt.rebalanceUnderPause()
	if !p.ready || len(sh.ready) != 1 || sh.ready[0] != p.pid {
		t.Fatalf("rebalance lost or duplicated the ready leaver: ready=%v list=%v", p.ready, sh.ready)
	}
	sh.cursor = 1

	sh.timeoutRound()
	if len(order) == 0 || order[0] != leaver {
		t.Fatalf("ready leaver did not time out first: round began with %v", order[:min(3, len(order))])
	}
	if !p.exitPending.Load() || p.ready || len(sh.ready) != 0 {
		t.Fatalf("after its timeout: exitPending=%v ready=%v list=%v", p.exitPending.Load(), p.ready, sh.ready)
	}
	rt.epochFast(oracle.Single{})
	if !exited || rt.Gone() != 1 {
		t.Fatalf("leaver not gone after the next epoch (gone=%d)", rt.Gone())
	}
	if len(order)-1 >= others {
		t.Fatalf("%d other timeouts before the exit: a full lap of %d", len(order)-1, others)
	}
	sh.timeoutRound()
	for i, r := range order[1:] {
		if r == leaver {
			t.Fatalf("leaver timed out again (event %d)", i+1)
		}
	}
}

// TestDegreeSeedCountsInitialInFlight checks the Start-time reseed counts
// pre-Start injected messages as implicit edges: a leaver whose only tie to
// the system is a reference travelling in a message must report degree 1.
func TestDegreeSeedCountsInitialInFlight(t *testing.T) {
	space := ref.NewSpace()
	nodes := space.NewN(3)
	rt := NewRuntime(oracle.Single{})
	rt.AddProcess(nodes[0], sim.Staying, core.New(core.VariantFDP))
	rt.AddProcess(nodes[1], sim.Staying, core.New(core.VariantFDP))
	rt.AddProcess(nodes[2], sim.Leaving, core.New(core.VariantFDP))
	// nodes[0] is being told about the leaver: the ref rides in flight.
	rt.Enqueue(nodes[0], sim.NewMessage("intro", sim.RefInfo{Ref: nodes[2], Mode: sim.Leaving}))
	// seal is the part of Start that runs before any worker exists: reading
	// the ledger here cannot race a delivery of the intro (after Start a
	// worker may consume it first, and both degrees then read 0).
	rt.seal()
	got := len(rt.procs[nodes[2]].nbr)
	want, _ := rt.freezeUnderPause().RelevantDegree(nodes[2])
	if got != want || want == 0 {
		t.Fatalf("seeded degree %d, frozen world %d (want equal and nonzero)", got, want)
	}
}
