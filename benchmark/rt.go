package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/diffval"
	"fdp/internal/obs"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

func churnConfig(sz sizes, seed int64, orc sim.Oracle) churn.Config {
	return churn.Config{
		N: sz.n, Topology: churn.TopoRandom, LeaveFraction: sz.leave,
		Pattern: churn.LeaveRandom, Variant: core.VariantFDP,
		Oracle: orc, Seed: seed,
	}
}

// observers is rt_observed's stack, attached through public APIs only: one
// sink closure fanning out to per-kind counters, the progress tracker, the
// flight ring and a JSON journal to io.Discard.
type observers struct {
	kinds  [sim.NumEventKinds]*obs.Counter
	prog   *obs.Progress
	flight *trace.Flight
	jw     *trace.Writer
}

func newObservers(cfg churn.Config, leavers []ref.Ref, journal io.Writer) *observers {
	reg := obs.NewRegistry()
	o := &observers{
		prog:   obs.NewProgress(reg, `engine="runtime"`, leavers),
		flight: trace.NewFlight(0),
		jw: trace.NewWriter(journal, trace.Header{Version: trace.Version,
			Engine: trace.EngineRuntime, Scenario: trace.ScenarioFor(cfg, "")}),
	}
	for k := range o.kinds {
		o.kinds[k] = reg.Counter(fmt.Sprintf(`%s{engine="runtime",kind=%q}`,
			obs.MetricEvents, sim.EventKind(k)), "trace events per kind")
	}
	return o
}

func (o *observers) count(e sim.Event) { o.kinds[e.Kind].Inc() }

func (o *observers) sink(e sim.Event) {
	o.count(e)
	o.prog.NoteEvent(e)
	o.flight.Record(e)
	o.jw.Record(e)
}

// rtTrace is the traced pass's view of one runtime trial, fed by the event
// sink: mailbox wait (send paired with deliver by MsgID, one message in 64)
// and the deepest mailbox seen.
type rtTrace struct {
	depthMax atomic.Int64
	mu       sync.Mutex
	sentAt   map[uint64]time.Time
	waitsUs  []float64
}

func (t *rtTrace) sink(e sim.Event) {
	switch e.Kind {
	case sim.EvSend:
		for {
			cur := t.depthMax.Load()
			if int64(e.Depth) <= cur || t.depthMax.CompareAndSwap(cur, int64(e.Depth)) {
				break
			}
		}
		if e.MsgID%sampleEvery == 0 {
			now := time.Now()
			t.mu.Lock()
			t.sentAt[e.MsgID] = now
			t.mu.Unlock()
		}
	case sim.EvDeliver:
		if e.MsgID%sampleEvery == 0 {
			now := time.Now()
			t.mu.Lock()
			if at, ok := t.sentAt[e.MsgID]; ok {
				delete(t.sentAt, e.MsgID)
				t.waitsUs = append(t.waitsUs, float64(now.Sub(at))/float64(time.Microsecond))
			}
			t.mu.Unlock()
		}
	}
}

// runRuntime is one trial of rt_churn, rt_sparse or rt_observed.
func runRuntime(b *bench, sz sizes, seed int64, observed bool) trial {
	var t trial
	orc, timed := b.oracleFor()
	var heap0 uint64
	if b.traced {
		_, heap0 = mallocs()
	}

	cal0 := hostSpeed()
	endSetup := b.span("setup")
	cfg := churnConfig(sz, seed, orc)
	end := b.span("churn.build")
	scn := churn.Build(cfg)
	b.note("churn.build_s", end().Seconds())
	end = b.span("diffval.mirror")
	rt := diffval.MirrorWorld(scn.World, orc)
	b.note("diffval.mirror_s", end().Seconds())
	leavers := scn.LeavingNodes()

	var sinks []func(sim.Event)
	var hooks []func(ref.Ref, bool)
	var watch *observers
	if observed {
		watch = newObservers(cfg, leavers, io.Discard)
		sinks = append(sinks, watch.sink)
		hooks = append(hooks, watch.prog.NoteOracle)
	}
	var rtt *rtTrace
	var judged verdicts
	if b.traced {
		rtt = &rtTrace{sentAt: make(map[uint64]time.Time)}
		sinks = append(sinks, rtt.sink)
		hooks = append(hooks, judged.hook)
	}
	// SetEventSink and SetOracleHook are one slot each: fan out by hand, and
	// install nothing when nobody listens (rt_churn untraced has no observers).
	if len(sinks) > 0 {
		rt.SetEventSink(func(e sim.Event) {
			for _, s := range sinks {
				s(e)
			}
		})
	}
	if len(hooks) > 0 {
		rt.SetOracleHook(func(u ref.Ref, ok bool) {
			for _, h := range hooks {
				h(u, ok)
			}
		})
	}
	t.setup = endSetup()
	cal1 := hostSpeed()

	var allocs0 uint64
	if b.traced {
		var heap1 uint64
		allocs0, heap1 = mallocs()
		b.note("parallel.heap_bytes_per_proc", ratio(float64(heap1)-float64(heap0), float64(sz.n)))
	}

	endRun := b.span("run")
	rt.Start()
	want := uint64(len(leavers))
	b.poll(rt.StartTime().Add(sz.deadline), func() bool { return rt.Gone() >= want })
	t.events, t.msgs = rt.Events(), rt.Sent()
	polled := time.Since(rt.StartTime())
	rt.Stop()
	endRun()
	t.setupCal, t.runCal = window{cal0, cal1}, window{cal1, hostSpeed()}

	lat := rt.ExitLatencies()
	for _, d := range lat {
		t.exits = append(t.exits, d.Seconds())
	}
	t.ops, t.failed = len(leavers), len(leavers)-len(lat)
	t.converge = polled
	if t.failed == 0 && len(lat) > 0 {
		t.converge = lat[len(lat)-1] // the runtime's own stamp, free of poll lag
	}

	// Correctness, outside the timed window: one Freeze after Stop.
	end = b.span("check.freeze")
	final := rt.Freeze()
	b.note("parallel.freeze_ms", float64(end())/float64(time.Millisecond))
	switch {
	case !final.RelevantComponentsIntact():
		t.problem = "safety: relevant processes disconnected (Lemma 2)"
	case t.failed > 0:
		// counted as failed operations, not as a wrong outcome
	case !final.Legitimate(sim.FDP):
		t.problem = "all leavers gone but the state is not legitimate"
	case watch != nil && watch.jw.Err() != nil:
		t.problem = "journal write: " + watch.jw.Err().Error()
	}

	if b.traced {
		allocs1, _ := mallocs()
		exited := float64(len(lat))
		b.noteOracle(timed, &judged, len(lat))
		b.note("parallel.shards", float64(rt.Shards()))
		b.note("parallel.epochs", float64(rt.Epochs()))
		b.note("parallel.epochs_per_s", ratio(float64(rt.Epochs()), polled.Seconds()))
		b.note("parallel.exits_per_epoch", ratio(exited, float64(rt.Epochs())))
		b.note("parallel.exit_denied_share", ratio(float64(rt.ExitDenied()), float64(rt.ExitDenied())+exited))
		b.note("parallel.timeouts_per_exit", ratio(float64(rt.KindCount(sim.EvTimeout)), exited))
		b.note("parallel.sends_per_exit", ratio(float64(rt.Sent()), exited))
		b.note("parallel.drops", float64(rt.Dropped()))
		b.note("parallel.mailbox_wait_p50_us", percentile(rtt.waitsUs, 50))
		b.note("parallel.mailbox_wait_p99_us", percentile(rtt.waitsUs, 99))
		b.note("parallel.mailbox_depth_max", float64(rtt.depthMax.Load()))
		if len(lat) > 0 {
			b.note("parallel.first_exit_s", lat[0].Seconds())
		}
		b.note("parallel.allocs_per_event", ratio(float64(allocs1-allocs0), float64(rt.Events())))
	}
	return t
}

// probeObservers prices each observer of rt_observed alone: a slice of real
// runtime events, captured from one extra run, is replayed through each
// consumer on one goroutine.
func probeObservers(b *bench, sz sizes, seed int64) {
	const want = 1 << 17
	cfg := churnConfig(sz, seed, b.oracle)
	scn := churn.Build(cfg)
	rt := diffval.MirrorWorld(scn.World, b.oracle)
	var mu sync.Mutex
	events := make([]sim.Event, 0, want)
	var full atomic.Bool
	rt.SetEventSink(func(e sim.Event) {
		if full.Load() {
			return
		}
		mu.Lock()
		if len(events) < want {
			events = append(events, e)
		} else {
			full.Store(true)
		}
		mu.Unlock()
	})
	rt.Start()
	leavers := uint64(len(scn.LeavingNodes()))
	b.poll(rt.StartTime().Add(sz.deadline), func() bool { return full.Load() || rt.Gone() >= leavers })
	rt.Stop()

	var out countingWriter
	watch := newObservers(cfg, scn.LeavingNodes(), &out)
	each := func(name string, fn func(sim.Event)) {
		end := b.span("probe." + name)
		for _, e := range events {
			fn(e)
		}
		b.note(name, ratio(float64(end()), float64(len(events))))
	}
	each("obs.counter_inc_ns", watch.count)
	each("obs.progress_note_ns", watch.prog.NoteEvent)
	each("trace.flight_record_ns", watch.flight.Record)
	header := out.n
	each("trace.journal_record_ns", watch.jw.Record)
	b.note("trace.journal_bytes_per_event", ratio(float64(out.n-header), float64(len(events))))
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
