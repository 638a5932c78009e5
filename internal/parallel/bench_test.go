package parallel

import (
	"testing"

	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// BenchmarkCrossShardSend prices one message from a process of one shard to
// a process of another, end to end and uncontended: admission on the degree
// ledger (the message carries the sender's reference, a tracked pair), the
// outbox append, its share of the flush after every 32nd message, the receiver's
// absorb and the delivery. One goroutine plays both workers; the contended
// price is what rt_churn shows.
func BenchmarkCrossShardSend(b *testing.B) {
	rt, a, l := twoShardPair(b, oracle.Always(false), sim.Leaving, &fixedRefsProto{}, &fixedRefsProto{})
	rt.seal()
	sha, shl := a.sh, l.sh
	msg := sim.NewMessage("m", sim.RefInfo{Ref: a.id, Mode: sim.Staying})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ctx.Send(l.id, msg)
		if i%256 == 255 {
			sha.flushAll()
			shl.deliverRound()
		}
	}
}

// BenchmarkDeliverReply prices one leaver–stayer present/forward exchange on
// the degree path, across two shards: the leaver presents itself (an
// admission, +1 on the pair), the stayer delivers the present and replies
// with a forward of its own reference — the reply takes the delivered
// message's pair over (the handoff, degree.go) — and the leaver delivers the
// forward and keeps nothing, paying the debt (−1): two locked pair updates
// and one handoff per exchange. One goroutine plays both workers, flushing
// where each worker's iteration would end.
func BenchmarkDeliverReply(b *testing.B) {
	rt, s, l := twoShardPair(b, oracle.Always(false), sim.Leaving, core.New(core.VariantFDP), &fixedRefsProto{})
	rt.seal()
	shs, shl := s.sh, l.sh
	present := sim.NewMessage(core.LabelPresent, sim.RefInfo{Ref: l.id, Mode: sim.Leaving})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ctx.Send(s.id, present)
		shl.flushAll()
		shs.deliverRound()
		shs.flushAll()
		shl.deliverRound()
	}
	b.StopTimer()
	if s.mb.len() != 0 || l.mb.len() != 0 {
		b.Fatalf("mail left over: %d, %d", s.mb.len(), l.mb.len())
	}
	b.ReportMetric(float64(shs.handoffs+shl.handoffs)/float64(b.N), "handoffs/op")
}

// BenchmarkLeaverRowJudged prices one locked pair update on a leaver's
// ledger row, judged where it lands (degree.go). In "moves" every update
// adds or removes the row's second neighbor, so the row changes length and
// the leaver is re-judged under its lock: every other update turns SINGLE's
// answer true and appends the leaver to its shard's ready list, which the
// loop then empties, as the worker's next timeout round would. In "still"
// every update moves the count of a pair the row holds twice over, its
// length stays, and nothing is judged.
func BenchmarkLeaverRowJudged(b *testing.B) {
	for _, moves := range []bool{true, false} {
		name := "still"
		if moves {
			name = "moves"
		}
		b.Run(name, func(b *testing.B) {
			space := ref.NewSpace()
			l, a, x := space.New(), space.New(), space.New()
			rt := NewRuntime(oracle.Single{})
			rt.SetShards(1)
			rt.AddProcess(l, sim.Leaving, &fixedRefsProto{refs: []ref.Ref{a}})
			rt.AddProcess(a, sim.Staying, &fixedRefsProto{})
			rt.AddProcess(x, sim.Staying, &fixedRefsProto{})
			rt.seal() // the leaver's answer is true, and it is on the ready list
			sh, pl, other := rt.shards[0], rt.lookup(l), rt.lookup(x)
			if !moves {
				other = rt.lookup(a)
			}
			pl.ready.Store(false)
			sh.ready = sh.ready[:0]
			readied := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					rt.pairBump(pl, other, 1)
					continue
				}
				rt.pairBump(pl, other, -1)
				if pl.ready.Load() {
					readied++
					pl.ready.Store(false)
					sh.ready = sh.ready[:0]
				}
			}
			b.StopTimer()
			if want := b.N / 2; moves && readied != want || !moves && readied != 0 {
				b.Fatalf("%d ready-list appends in %d updates", readied, b.N)
			}
		})
	}
}
