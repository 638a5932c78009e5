package node

import (
	"fmt"
	"slices"
	"testing"

	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
	"fdp/internal/transport"
)

// scanContribution is the reference for a leaver's row: this node's slice of
// uIdx's PG neighbourhood, rescanned from every owned process's stores and
// channel. For each live owned process v, v counts if it stores u's
// reference or a message queued at v mentions u; on u's own node, so do u's
// stored references and the references its queued messages carry. Owned
// processes known gone are left out; references to processes hosted
// elsewhere are kept.
func scanContribution(n *Node, uIdx int) []int {
	u := ref.ByIndex(uIdx)
	var nb []int
	add := func(r ref.Ref) {
		i := ref.Index(r)
		if i == uIdx {
			return
		}
		if n.world.Has(r) && n.world.LifeOf(r) == sim.Gone {
			return
		}
		nb = append(nb, i)
	}
	for _, v := range n.owned {
		if n.world.LifeOf(v) == sim.Gone {
			continue
		}
		if v == u {
			for _, w := range n.world.ProtocolOf(u).Refs() {
				add(w)
			}
			for _, m := range n.world.ChannelSnapshot(u) {
				for _, ri := range m.Refs {
					add(ri.Ref)
				}
			}
			continue
		}
		stores := slices.Contains(n.world.ProtocolOf(v).Refs(), u)
		for _, m := range n.world.ChannelSnapshot(v) {
			stores = stores || slices.ContainsFunc(m.Refs, func(ri sim.RefInfo) bool { return ri.Ref == u })
		}
		if stores {
			nb = append(nb, ref.Index(v))
		}
	}
	slices.Sort(nb)
	return slices.Compact(nb)
}

// TestAnswersMatchTheScan: after every Step of seeded 3-node loopback runs,
// with the chaos hooks on and off and with corrupted beliefs and junk
// messages, every node's answer for every leaver still live on its owner —
// read off the leaver's ledger row — equals the rescan of the node's owned
// processes.
func TestAnswersMatchTheScan(t *testing.T) {
	var scns []trace.Scenario
	for seed := int64(1); seed <= 10; seed++ {
		scns = append(scns, testScenario(12, seed))
	}
	corrupt := testScenario(12, 5)
	corrupt.FlipBeliefs, corrupt.JunkMessages = 0.5, 8
	scns = append(scns, corrupt)
	for _, scn := range scns {
		for _, chaos := range []bool{false, true} {
			var hooks func(*transport.Loopback)
			if chaos {
				var drops, dups int
				hooks = chaosHooks(&drops, &dups)
			}
			cfgs, _ := meshConfigs(scn, 3)
			remote := 0 // non-empty answers about a leaver hosted elsewhere
			_, err := runLoopback(cfgs, hooks, func(ns []*Node) {
				for _, n := range ns {
					if n == nil {
						continue
					}
					for _, u := range n.global.LeavingNodes() {
						owner := ns[n.ownerOf(u)]
						if owner == nil || owner.world.LifeOf(u) == sim.Gone {
							continue
						}
						ui := ref.Index(u)
						got := n.orc.answerFor([]int{ui})[0].Nb
						if want := scanContribution(n, ui); !slices.Equal(got, want) {
							t.Fatalf("%+v chaos=%v: node %d answers %v for p%d at step %d, the scan says %v",
								scn, chaos, n.cfg.ID, got, ui+1, n.steps, want)
						}
						if owner != n && len(got) > 0 {
							remote++
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if remote == 0 {
				t.Fatalf("%+v chaos=%v: no node ever counted a neighbour of a leaver it does not host", scn, chaos)
			}
		}
	}
}

// answerSink keeps BenchmarkAnswerFor's answers live.
var answerSink []ctlAnswer

// BenchmarkAnswerFor prices one node's answer to a round naming every leaver
// of a random topology where half the processes leave, on node 0 of 3. Its
// cost follows the rows it reads, not the processes the node owns.
func BenchmarkAnswerFor(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			scn := trace.Scenario{N: size, Topology: "random", LeaveFraction: 0.5,
				Pattern: "random", Variant: "FDP", Oracle: "SINGLE", Seed: 1}
			n, err := New(Config{ID: 0, Nodes: 3, Scenario: scn})
			if err != nil {
				b.Fatal(err)
			}
			var us []int
			for _, u := range n.global.LeavingNodes() {
				us = append(us, ref.Index(u))
			}
			n.orc.answerFor(us) // seeds the ledger
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				answerSink = n.orc.answerFor(us)
			}
		})
	}
}
