// Package obs is the observability spine shared by both execution engines:
// a concurrency-safe registry of counters, gauges and fixed-bucket
// histograms, a Prometheus-style text exposition of everything registered,
// and bridges that feed the registry from the sequential simulator's event
// stream (InstrumentWorld) and from the concurrent runtime's counters and
// event hooks (InstrumentRuntime).
//
// Design constraints, in order:
//
//   - The hot path is lock-free and zero-alloc. Counter.Inc, Gauge.Set and
//     Histogram.Observe touch only atomics on pre-allocated state; the
//     registry mutex is taken at registration time only, never while a
//     metric is updated. The registry mutex is declared //fdp:lockleaf, so
//     the lockgraph analyzer (DESIGN.md §14) rejects any acquisition made
//     while holding it, and TestCounterIncAllocs pins 0 allocs/op.
//   - Both engines share one vocabulary. The sequential simulator updates
//     metrics from its single-threaded event hook; the concurrent runtime
//     updates the same metric types from many goroutines at once. Every
//     metric is therefore safe for concurrent use — there is no
//     "sequential-only" variant to misuse.
//   - Exposition is deterministic: series render in sorted name order, so
//     scrapes diff cleanly and tests can assert on substrings.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. It fills a cache line of its
// own: counters registered one after another (one per event kind, say) are
// allocated side by side, and goroutines bumping different ones would
// otherwise write the same line.
type Counter struct {
	v atomic.Uint64
	// sources, appended to by Registry.CounterFunc (a fresh slice each time,
	// under the registry mutex), are summed on top of v.
	sources atomic.Pointer[[]func() uint64]
	_       [48]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	n := c.v.Load()
	if src := c.sources.Load(); src != nil {
		for _, fn := range *src {
			n += fn()
		}
	}
	return n
}

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: observations are counted into the
// first bucket whose upper bound is >= the value, plus an implicit +Inf
// bucket. Bounds are fixed at registration, so Observe allocates nothing.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the chosen bucket. The lowest
// bucket interpolates from 0 and the +Inf bucket reports the last finite
// bound, so the estimate is bounded by the configured buckets.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := float64(rank-cum) / float64(c)
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor — the shape used for step/latency series whose range spans orders
// of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ExitSecondsBuckets is the wall-clock time-to-exit schedule: coarse
// geometric bounds below half a second, a fine ~8%-spaced log series
// through the 0.5s–40s band, then a coarse tail. The committed n=100k
// baseline puts p50 at 6.7s and p99 at 7.6s — a plain ExpBuckets(0.0001,
// 4, 12) schedule collapses that whole band into one (6.55, 26.2] bucket,
// so quantiles at 100k scale were pure interpolation artifacts. The fine
// band resolves ratios down to 1.08x where the mass actually lands.
func ExitSecondsBuckets() []float64 {
	out := ExpBuckets(0.0001, 4, 7)                 // 100µs … 0.41s
	out = append(out, ExpBuckets(0.5, 1.08, 57)...) // 0.5s … ~37s
	return append(out, ExpBuckets(60, 4, 4)...)     // 60s … 3840s
}

// --- registry -----------------------------------------------------------

// metric is anything the registry can expose.
type metric interface {
	expose(w io.Writer, name string)
	kind() string
}

func (c *Counter) kind() string { return "counter" }
func (c *Counter) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, g.Value())
}

func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) expose(w io.Writer, name string) {
	base, labels := splitName(name)
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatBound(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabels(labels, `le="`+le+`"`), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", base, labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
}

// gaugeFunc is a collector gauge: its value is computed at scrape time
// (used to expose live engine counters such as Runtime.Events without
// copying them on every update).
type gaugeFunc struct{ fn func() float64 }

func (g gaugeFunc) kind() string { return "gauge" }
func (g gaugeFunc) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %g\n", name, g.fn())
}

// Registry is a named collection of metrics. Registration (the Counter /
// Gauge / Histogram / GaugeFunc / CounterFunc accessors) takes the registry
// mutex; updating a registered metric never does.
type Registry struct {
	mu      sync.Mutex //fdp:lockleaf
	metrics map[string]metric
	help    map[string]string // base name -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric), help: make(map[string]string)}
}

// Counter returns the counter registered under name, creating it if
// needed. The name may carry a Prometheus label suffix, e.g.
// `fdp_events_total{kind="send"}`; series sharing a base name share one
// HELP/TYPE header. Panics if name is registered as a different kind.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookupOrCreate(name, help, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %s registered as %s, not counter", name, m.kind()))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookupOrCreate(name, help, func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %s registered as %s, not gauge", name, m.kind()))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed (bounds are ignored when the
// histogram already exists).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.lookupOrCreate(name, help, func() metric { return newHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %s registered as %s, not histogram", name, m.kind()))
	}
	return h
}

// GaugeFunc registers a collector gauge whose value is fn() at scrape
// time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.lookupOrCreate(name, help, func() metric { return gaugeFunc{fn: fn} })
}

// CounterFunc adds fn as a source of the counter registered under name,
// creating it if needed: Value counts fn() at scrape time, for a monotone
// count the engine already keeps (per shard, per lane) and a hook would only
// count a second time. A name registered again keeps its earlier sources and
// whatever was Inc'd, so several runs instrumented into one registry sum as
// they do on a plain Counter; the registry keeps every source reachable. fn
// must be safe for concurrent use. Counter(name, "") returns the same counter
// for reading.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	c := r.Counter(name, help)
	r.mu.Lock()
	defer r.mu.Unlock()
	var src []func() uint64
	if old := c.sources.Load(); old != nil {
		src = append(src, *old...)
	}
	src = append(src, fn)
	c.sources.Store(&src)
}

func (r *Registry) lookupOrCreate(name, help string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	base, _ := splitName(name)
	if _, ok := r.help[base]; !ok && help != "" {
		r.help[base] = help
	}
	return m
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, series sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	snapshot := make(map[string]metric, len(r.metrics))
	for name, m := range r.metrics {
		snapshot[name] = m
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Strings(names)
	headered := make(map[string]bool)
	for _, name := range names {
		m := snapshot[name]
		base, _ := splitName(name)
		if !headered[base] {
			headered[base] = true
			if h := help[base]; h != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", base, h)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", base, m.kind())
		}
		m.expose(w, name)
	}
}

// String renders the exposition text (for tests and file dumps).
func (r *Registry) String() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// splitName separates an optional {label} suffix from the base name.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// mergeLabels combines an existing {a="b"} suffix with one extra label.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatBound(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}
