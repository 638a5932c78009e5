package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"

	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// trial is the outcome of one closed batch: every leaver requests departure
// at engine start, the trial ends when the last one is gone or at its
// deadline.
type trial struct {
	setup    time.Duration // scenario build + engine construction
	converge time.Duration // engine start to converged (or to the deadline)
	exits    []float64     // seconds from engine start, one per exited leaver
	events   uint64        // executed protocol actions up to converge
	msgs     uint64        // messages sent up to converge
	ops      int           // operations attempted: departures (+ lookups)
	failed   int           // operations not completed by the deadline
	problem  string        // non-empty: a correctness check failed

	// setupCal and runCal are the host-speed readings around the two timed
	// windows (calib.go); every duration above is as measured.
	setupCal, runCal window
}

// bench is the state of one pass over one workload. The untraced pass
// leaves every tracing field nil or false; the traced pass fills layer and
// spans.
type bench struct {
	traced bool
	smoke  bool
	// oracle is what every FDP engine is built with; only the test that
	// proves the checks bite replaces SINGLE.
	oracle degreeOracle

	spans *spanLog
	// layer holds the per-trial samples of every per-layer metric; a
	// metric's value is their median. Probes that run once per pass add one.
	layer   map[string][]float64
	pollLag []float64 // ms each 1 ms poll woke late, both passes
	// judged counts the traced pass's oracle calls across its trials, so the
	// 1-in-64 timing also reaches workloads with fewer calls than that a trial.
	judged uint64
}

// degreeOracle is an oracle the runtime judges on its incremental degree
// fast path.
type degreeOracle interface {
	sim.Oracle
	JudgeDegree(deg int) bool
}

func newBench(traced, smoke bool) *bench {
	b := &bench{traced: traced, smoke: smoke, oracle: oracle.Single{}}
	if traced {
		b.layer = make(map[string][]float64)
		b.spans = newSpanLog()
	}
	return b
}

// note records one per-trial sample of a per-layer metric (traced pass
// only).
func (b *bench) note(name string, v float64) {
	if b.traced {
		b.layer[name] = append(b.layer[name], v)
	}
}

// span opens a span and returns the function that closes it and reports
// its duration. Untraced it only measures.
func (b *bench) span(name string) func() time.Duration {
	start := time.Now()
	return func() time.Duration {
		d := time.Since(start)
		if b.traced {
			b.spans.add(name, tidTrial, start, d)
		}
		return d
	}
}

// poll re-evaluates done every millisecond until it holds or the deadline
// passes, and records how late each wake-up ran. It is how convergence is
// detected inside a timed window: reading atomics, never freezing the
// world.
func (b *bench) poll(deadline time.Time, done func() bool) bool {
	next := time.Now()
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		next = next.Add(time.Millisecond)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(next)
		b.pollLag = append(b.pollLag, float64(lag)/float64(time.Millisecond))
		if lag > time.Millisecond {
			next = time.Now() // fell behind: do not burst to catch up
		}
	}
	return true
}

// timedOracle is the traced pass's oracle: it counts every judgement, times
// one in 64, and forwards JudgeDegree so the runtime stays on its degree
// fast path. The runtime judges on the coordinator goroutine and the
// sequential engine on its only goroutine, so plain fields suffice; they
// are read after the engine stopped.
type timedOracle struct {
	inner     degreeOracle
	spans     *spanLog
	phase     *uint64 // the pass's call count: which calls are timed
	every     uint64  // one call in every is timed
	calls     uint64  // Evaluate + JudgeDegree
	evaluates uint64  // Evaluate alone: must stay 0 on rt_* runs
	sampled   uint64
	sampledNs time.Duration
}

func (o *timedOracle) Name() string { return o.inner.Name() }

func (o *timedOracle) Evaluate(w *sim.World, u ref.Ref) bool {
	o.evaluates++
	if o.tick() {
		start := time.Now()
		ok := o.inner.Evaluate(w, u)
		o.sample(start)
		return ok
	}
	return o.inner.Evaluate(w, u)
}

func (o *timedOracle) JudgeDegree(deg int) bool {
	if o.tick() {
		start := time.Now()
		ok := o.inner.JudgeDegree(deg)
		o.sample(start)
		return ok
	}
	return o.inner.JudgeDegree(deg)
}

func (o *timedOracle) tick() bool {
	o.calls++
	*o.phase++
	return *o.phase%o.every == 0
}

func (o *timedOracle) sample(start time.Time) {
	d := time.Since(start)
	o.sampled++
	o.sampledNs += d
	o.spans.add("oracle.judge", tidOracle, start, d)
}

// verdicts counts the oracle's grants and denials through SetOracleHook.
// The hook runs on the engine's judging goroutine only.
type verdicts struct{ grants, denials uint64 }

func (v *verdicts) hook(_ ref.Ref, ok bool) {
	if ok {
		v.grants++
	} else {
		v.denials++
	}
}

// noteOracle reports the oracle layer of one trial.
func (b *bench) noteOracle(o *timedOracle, v *verdicts, exited int) {
	b.note("oracle.calls", float64(o.calls))
	b.note("oracle.calls_per_exit", ratio(float64(o.calls), float64(exited)))
	b.note("oracle.grant_share", ratio(float64(v.grants), float64(v.grants+v.denials)))
	if o.sampled > 0 {
		evalNs := float64(o.sampledNs) / float64(o.sampled)
		b.note("oracle.eval_ns", evalNs)
		b.note("oracle.busy_s", evalNs*float64(o.calls)/1e9)
	}
}

// oracleFor returns the oracle a trial's engine gets: the plain one
// untraced, the timing wrapper traced (nil wrapper otherwise).
func (b *bench) oracleFor() (sim.Oracle, *timedOracle) {
	if !b.traced {
		return b.oracle, nil
	}
	o := &timedOracle{inner: b.oracle, spans: b.spans, phase: &b.judged, every: sampleEvery}
	if b.smoke {
		o.every = 1 // a smoke trial may judge fewer than 64 times in all
	}
	return o, o
}

// sampleEvery is the 1-in-N rate at which layer calls are timed and turned
// into spans.
const sampleEvery = 64

// Span threads of the Chrome trace: the trial's own goroutine, then one
// lane per wrapped layer (their calls arrive on engine goroutines).
const (
	tidTrial = iota
	tidOracle
	tidSim
)

var tidNames = [...]string{"trial", "oracle", "sim"}

type spanRec struct {
	name       string
	tid, trial int
	start, dur time.Duration // start is relative to the log's epoch
}

// spanLog keeps spans in memory until the benchmark ends. It is bounded:
// past maxSpans it only counts what it dropped.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	trial   int
	recs    []spanRec
	dropped int
}

const maxSpans = 1 << 18

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(name string, tid int, start time.Time, dur time.Duration) {
	l.mu.Lock()
	if len(l.recs) < maxSpans {
		l.recs = append(l.recs, spanRec{name: name, tid: tid, trial: l.trial,
			start: start.Sub(l.epoch), dur: dur})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

func (l *spanLog) nextTrial() {
	l.mu.Lock()
	l.trial++
	l.mu.Unlock()
}

// writeChrome renders the log as Chrome-trace JSON ("X" complete events,
// microsecond timestamps): one process per workload, one thread per lane.
// Spans of one trial share args.trial.
func (l *spanLog) writeChrome(w io.Writer, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	events := make([]event, 0, len(l.recs)+len(tidNames)+1)
	events = append(events, event{Name: "process_name", Ph: "M", Args: map[string]any{"name": workload}})
	for tid, name := range tidNames {
		events = append(events, event{Name: "thread_name", Ph: "M", Tid: tid, Args: map[string]any{"name": name}})
	}
	for _, r := range l.recs {
		events = append(events, event{Name: r.name, Ph: "X", Tid: r.tid,
			Ts: float64(r.start) / 1e3, Dur: float64(r.dur) / 1e3,
			Args: map[string]any{"trial": r.trial}})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": events, "displayTimeUnit": "ms",
		"otherData": map[string]any{"workload": workload, "dropped_spans": l.dropped},
	})
}

// mallocs reads the cumulative allocation count (stops the world briefly;
// traced pass only, outside timed windows).
func mallocs() (count, heap uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.HeapAlloc
}
