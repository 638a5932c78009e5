package diffval

import (
	"testing"

	"fdp/internal/churn"
	"fdp/internal/oracle"
	"fdp/internal/parallel"
)

// BenchmarkMirrorWorld prices mirroring rt_churn's sealed scenario (n =
// 10000, random topology, half of the processes leave) into a runtime, the
// diffval.mirror layer of every runtime run's setup.
func BenchmarkMirrorWorld(b *testing.B) {
	s := churn.Build(churn.Config{N: 10000, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Pattern: churn.LeaveRandom, Oracle: oracle.Single{}, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRuntime = MirrorWorld(s.World, oracle.Single{})
	}
}

var benchRuntime *parallel.Runtime
