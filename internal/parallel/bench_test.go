package parallel

import (
	"testing"

	"fdp/internal/oracle"
	"fdp/internal/sim"
)

// BenchmarkCrossShardSend prices one message from a process of one shard to
// a process of another, end to end and uncontended: admission on the degree
// ledger (the message carries the sender's reference, a tracked pair), the
// outbox append, its share of the flush at every 32nd message, the receiver's
// absorb and the delivery. One goroutine plays both workers; the contended
// price is what rt_churn shows.
func BenchmarkCrossShardSend(b *testing.B) {
	rt, a, l := twoShardPair(b, oracle.Always(false), sim.Leaving, &fixedRefsProto{}, &fixedRefsProto{})
	rt.seal()
	sha, shl := rt.shards[a.shard.Load()], rt.shards[l.shard.Load()]
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
