package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "help c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("g", "help g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	// Get-or-create returns the same instance.
	if reg.Counter("c_total", "") != c {
		t.Fatal("second Counter lookup returned a different instance")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge on a counter name did not panic")
		}
	}()
	reg.Gauge("m", "")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for v := 1; v <= 8; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 36 {
		t.Fatalf("sum = %v, want 36", h.Sum())
	}
	med := h.Quantile(0.5)
	if med < 1 || med > 4 {
		t.Fatalf("median estimate %v outside [1,4]", med)
	}
	hi := h.Quantile(0.99)
	if hi < 4 || hi > 8 {
		t.Fatalf("p99 estimate %v outside [4,8]", hi)
	}
	// Values beyond the last bound land in +Inf and report the last bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile = %v, want last bound 1", got)
	}
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

func TestHistogramSumConcurrent(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-workers*per) > 1e-9 {
		t.Fatalf("sum = %v, want %d", h.Sum(), workers*per)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`fdp_events_total{kind="send"}`, "events per kind").Add(3)
	reg.Counter(`fdp_events_total{kind="exit"}`, "events per kind").Add(1)
	reg.Gauge("fdp_gone", "gone processes").Set(2)
	reg.Histogram("fdp_age", "age", []float64{1, 2}).Observe(1.5)
	reg.GaugeFunc("fdp_live", "live value", func() float64 { return 4 })
	collected := uint64(6)
	reg.CounterFunc(`fdp_events_total{kind="wake"}`, "events per kind", func() uint64 { return collected })
	// A name registered again sums its sources and what was Inc'd.
	reg.CounterFunc(`fdp_events_total{kind="sleep"}`, "events per kind", func() uint64 { return 2 })
	reg.CounterFunc(`fdp_events_total{kind="sleep"}`, "events per kind", func() uint64 { return 5 })
	reg.Counter(`fdp_events_total{kind="sleep"}`, "").Inc()
	out := reg.String()

	for _, want := range []string{
		"# TYPE fdp_events_total counter",
		`fdp_events_total{kind="sleep"} 8`,
		"# HELP fdp_events_total events per kind",
		`fdp_events_total{kind="exit"} 1`,
		`fdp_events_total{kind="send"} 3`,
		`fdp_events_total{kind="wake"} 6`,
		"# TYPE fdp_gone gauge",
		"fdp_gone 2",
		"# TYPE fdp_age histogram",
		`fdp_age_bucket{le="1"} 0`,
		`fdp_age_bucket{le="2"} 1`,
		`fdp_age_bucket{le="+Inf"} 1`,
		"fdp_age_sum 1.5",
		"fdp_age_count 1",
		"fdp_live 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family, not per series.
	if strings.Count(out, "# TYPE fdp_events_total") != 1 {
		t.Fatalf("duplicated TYPE header:\n%s", out)
	}
	// Deterministic: series sorted by name.
	if strings.Index(out, `kind="exit"`) > strings.Index(out, `kind="send"`) {
		t.Fatalf("series not sorted:\n%s", out)
	}
	// A collector counter is a counter of its family (no second TYPE line
	// above) and reads by name like one, at the value of the moment.
	collected = 9
	if got := reg.Counter(`fdp_events_total{kind="wake"}`, "").Value(); got != 9 {
		t.Fatalf("collector counter read by name = %d, want 9", got)
	}
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Counter("shared_total", "").Inc()
				reg.Histogram("shared_hist", "", ExpBuckets(1, 2, 4)).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared_total", "").Value(); got != 8*200 {
		t.Fatalf("shared counter = %d, want %d", got, 8*200)
	}
}

// TestHotPathAllocs is the zero-alloc guard of the acceptance criteria:
// counter increments, gauge stores and histogram observations on
// registered metrics must not allocate.
func TestHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hot_total", "")
	g := reg.Gauge("hot_gauge", "")
	h := reg.Histogram("hot_hist", "", ExpBuckets(1, 2, 16))
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3.5) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_hist", "", ExpBuckets(1, 2, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

// TestExitSecondsBucketsResolveChurnBand is the regression test for the
// time-to-exit schedule: the committed n=100k baseline lands p50 at 6.7s and
// p99 at 7.6s, and the old ExpBuckets(0.0001, 4, 12) schedule put both in
// the single (6.55, 26.2] bucket — every quantile in that band was an
// interpolation artifact. The widened schedule must (a) keep both values in
// finite, *distinct* buckets and (b) let a histogram fed a synthetic
// 100k-scale sample actually distinguish p50 from p99.
func TestExitSecondsBucketsResolveChurnBand(t *testing.T) {
	bs := ExitSecondsBuckets()
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %g <= %g", i, bs[i], bs[i-1])
		}
	}
	idx := func(v float64) int {
		for i, b := range bs {
			if v <= b {
				return i
			}
		}
		return len(bs) // +Inf
	}
	i50, i99 := idx(6.7), idx(7.6)
	if i50 >= len(bs) || i99 >= len(bs) {
		t.Fatalf("churn band overflows to +Inf: p50 bucket %d, p99 bucket %d of %d", i50, i99, len(bs))
	}
	if i50 == i99 {
		t.Fatalf("6.7s and 7.6s share bucket %d (le=%g) — p50/p99 indistinguishable again", i50, bs[i50])
	}

	// Synthetic 100k-scale sample: 98% of exits near 6.7s, a 2% tail near
	// 7.6s. The old schedule reported p50 == p99 here.
	h := newHistogram(bs)
	for i := 0; i < 9800; i++ {
		h.Observe(6.7)
	}
	for i := 0; i < 200; i++ {
		h.Observe(7.6)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if !(p50 < p99) {
		t.Fatalf("p50=%g !< p99=%g on a bimodal 6.7s/7.6s sample", p50, p99)
	}
	if p50 < 6.0 || p50 > 7.3 {
		t.Fatalf("p50=%g, want within the 6.7s mode's bucket neighborhood", p50)
	}
	if p99 < 7.0 || p99 > 8.3 {
		t.Fatalf("p99=%g, want within the 7.6s mode's bucket neighborhood", p99)
	}
}
