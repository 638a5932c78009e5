package obs

import (
	"strconv"

	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Canonical FDP series names. Both engines write the same vocabulary,
// distinguished by the engine label, so dashboards and tests query one
// schema regardless of which engine produced a run.
const (
	// MetricEvents is the per-kind event counter family.
	MetricEvents = "fdp_events_total"
	// MetricMessageAge is the message-age-at-delivery histogram. Sequential
	// engine: age in steps. Concurrent engine has no step-stamped enqueue,
	// so it does not write this series.
	MetricMessageAge = "fdp_message_age_steps"
	// MetricMailboxDepth is the channel/mailbox depth histogram, observed
	// at every send (depth after the append).
	MetricMailboxDepth = "fdp_mailbox_depth"
	// MetricTimeToExitSteps is the sequential time-to-exit histogram: the
	// step at which each leaver committed exit (leavers exist from step 0).
	MetricTimeToExitSteps = "fdp_time_to_exit_steps"
	// MetricTimeToExitSeconds is the concurrent time-to-exit histogram:
	// seconds on the runtime's clock (Runtime.Clock) at each committed exit.
	MetricTimeToExitSeconds = "fdp_time_to_exit_seconds"
	// MetricOracleCalls counts oracle evaluations (via CountOracle).
	MetricOracleCalls = "fdp_oracle_calls_total"
	// MetricExitDenied counts exit requests rejected by the runtime's
	// revalidation under the snapshot lock.
	MetricExitDenied = "fdp_exit_denied_total"
	// MetricCausalIDs is the high-water mark of reserved causal identities
	// (events and messages) — the causal-progress gauge of DESIGN.md §11.
	// The sequential engine reserves one id at a time; the runtime's workers
	// reserve blocks, so there a journal's largest cid is at most this
	// gauge's final value.
	MetricCausalIDs = "fdp_causal_ids"
)

const eventsHelp = "trace events per kind and engine"

func eventSeries(engine string, k sim.EventKind) string {
	return MetricEvents + `{engine="` + engine + `",kind="` + k.String() + `"}`
}

// InstrumentWorld attaches a metrics hook to the sequential world via the
// event-hook fan-out (existing consumers such as the viz recorder keep
// receiving events). The hook is zero-alloc: every series it touches is
// registered here, before the run.
func InstrumentWorld(w *sim.World, reg *Registry) {
	// One counter per event kind, registered up front: the hook's hot path is
	// an array index and an atomic add.
	var kinds [sim.NumEventKinds]*Counter
	for k := range kinds {
		kinds[k] = reg.Counter(eventSeries("sim", sim.EventKind(k)), eventsHelp)
	}
	msgAge := reg.Histogram(MetricMessageAge,
		"steps a message spent enqueued before delivery",
		ExpBuckets(1, 2, 16))
	depth := reg.Histogram(MetricMailboxDepth,
		"channel depth after each send",
		ExpBuckets(1, 2, 12))
	timeToExit := reg.Histogram(MetricTimeToExitSteps,
		"step at which each leaver committed exit",
		ExpBuckets(1, 2, 24))
	// Updated from the hook rather than a GaugeFunc over World.CausalIDs:
	// the world is single-threaded and must not be read by a concurrent
	// Collect, while a gauge is an atomic cell. Event CIDs are the latest
	// allocation at emission time, so the gauge tracks the high-water mark.
	causal := reg.Gauge(MetricCausalIDs, "high-water mark of reserved causal identities")
	w.AddEventHook(func(e sim.Event) {
		if int(e.Kind) < sim.NumEventKinds {
			kinds[e.Kind].Inc()
		}
		causal.Set(int64(e.CID))
		switch e.Kind {
		case sim.EvDeliver:
			msgAge.Observe(float64(e.Age))
		case sim.EvSend:
			depth.Observe(float64(e.Depth))
		case sim.EvExit:
			timeToExit.Observe(float64(e.Step))
		}
	})
}

// InstrumentRuntime wires the concurrent runtime into reg: the per-kind
// event series the sequential bridge writes (engine="runtime"), collected
// from the per-shard counts the runtime keeps anyway; an event hook
// (attached through the runtime's hook fan-out, so a journal writer or
// flight ring installed beside it keeps receiving events) feeding the depth
// histogram and a time-to-exit histogram on the runtime's clock; and
// collector gauges over the runtime's always-on atomic counters, among them
// each shard's cross-shard mail. Call before Runtime.Start (or RunSeeded)
// and after SetShards. The hook runs on the emitting goroutines and touches
// only atomics. Several runtimes instrumented into one registry sum in the
// counters and histograms (each is a further CounterFunc source); the gauges
// follow the first.
func InstrumentRuntime(rt *parallel.Runtime, reg *Registry) {
	for k := range sim.NumEventKinds {
		kind := sim.EventKind(k)
		reg.CounterFunc(eventSeries("runtime", kind), eventsHelp,
			func() uint64 { return rt.KindCount(kind) })
	}
	depth := reg.Histogram(MetricMailboxDepth,
		"channel depth after each send",
		ExpBuckets(1, 2, 12))
	timeToExit := reg.Histogram(MetricTimeToExitSeconds,
		"seconds on the runtime's clock (virtual under RunSeeded) at each committed exit",
		ExitSecondsBuckets())
	rt.AddEventHook(func(e sim.Event) {
		switch e.Kind {
		case sim.EvSend:
			depth.Observe(float64(e.Depth))
		case sim.EvExit:
			timeToExit.Observe(rt.Clock().Seconds())
		}
	})
	reg.GaugeFunc("fdp_runtime_actions_total", "executed actions (timeouts + deliveries)",
		func() float64 { return float64(rt.Events()) })
	reg.GaugeFunc("fdp_runtime_sent_total", "messages sent (including drops)",
		func() float64 { return float64(rt.Sent()) })
	reg.GaugeFunc("fdp_runtime_dropped_total", "sends that vanished (gone target)",
		func() float64 { return float64(rt.Dropped()) })
	reg.GaugeFunc("fdp_runtime_gone", "processes that committed exit",
		func() float64 { return float64(rt.Gone()) })
	reg.GaugeFunc(MetricExitDenied, "exit requests rejected by revalidation",
		func() float64 { return float64(rt.ExitDenied()) })
	// The runtime's causal counter is an atomic, so a collector-time read is
	// race-free (unlike the sequential world, which needs the hook form).
	reg.GaugeFunc(MetricCausalIDs, "high-water mark of reserved causal identities",
		func() float64 { return float64(rt.CausalIDs()) })
	// Cross-shard mail, per shard: messages over flushes is the mean batch a
	// worker publishes under one hold of the target's inbox lock. Beside it,
	// the ledger pairs the shard's deliveries handed to their replies, and the
	// exits its worker committed itself.
	for i := 0; i < rt.Shards(); i++ {
		shard := `{shard="` + strconv.Itoa(i) + `"}`
		reg.GaugeFunc("fdp_runtime_outbox_flushes_total"+shard, "batches published to another shard's inbox",
			func() float64 { return float64(rt.ShardTraffic(i).OutboxFlushes) })
		reg.GaugeFunc("fdp_runtime_outbox_messages_total"+shard, "messages in those batches",
			func() float64 { return float64(rt.ShardTraffic(i).OutboxMessages) })
		reg.GaugeFunc("fdp_runtime_inbox_absorbs_total"+shard, "times the shard's worker (or a pauser) emptied its inbox",
			func() float64 { return float64(rt.ShardTraffic(i).InboxAbsorbs) })
		reg.GaugeFunc("fdp_runtime_ledger_handoffs_total"+shard, "delivered messages whose ledger pair a reply or store took over",
			func() float64 { return float64(rt.ShardTraffic(i).PairHandoffs) })
		reg.GaugeFunc("fdp_runtime_exit_commits_total"+shard, "exits the shard's worker committed in the action that asked",
			func() float64 { return float64(rt.ShardTraffic(i).ExitCommits) })
	}
}

// countedOracle wraps an oracle with an atomic call counter. The counter
// update is receiver state only, so the wrapper stays a pure guard
// (guardpurity-clean) and is safe under the runtime's concurrent
// evaluation (serialized by oracleMu, but the counter does not rely on
// that).
type countedOracle struct {
	inner sim.Oracle
	calls *Counter
}

func (o countedOracle) Name() string { return o.inner.Name() }

func (o countedOracle) Evaluate(w *sim.World, u ref.Ref) bool {
	o.calls.Inc()
	return o.inner.Evaluate(w, u)
}

// degreeJudge mirrors the concurrent runtime's degree-oracle contract: an
// oracle whose verdict is a pure function of the SINGLE-style relevant
// degree. The counting wrapper must preserve it — the runtime discovers
// the capability by type assertion, and losing it would silently push a
// benchmark run off the degree path onto the per-epoch world clone.
type degreeJudge interface {
	JudgeDegree(deg int) bool
}

type countedDegreeOracle struct {
	countedOracle
	jd degreeJudge
}

func (o countedDegreeOracle) JudgeDegree(deg int) bool {
	o.calls.Inc()
	return o.jd.JudgeDegree(deg)
}

// CountOracle wraps orc so every evaluation increments the
// MetricOracleCalls counter of reg — the oracle-call-count series for both
// engines (the sequential world evaluates on OracleSays and legitimacy
// checks; the runtime wherever a leaver's ledger row moves, and in an
// epoch's validation and cache refresh). Degree-pure oracles keep their
// JudgeDegree method through the wrapper. A nil orc is returned unchanged.
func CountOracle(orc sim.Oracle, reg *Registry) sim.Oracle {
	if orc == nil {
		return nil
	}
	c := countedOracle{inner: orc, calls: reg.Counter(MetricOracleCalls, "oracle evaluations")}
	if jd, ok := orc.(degreeJudge); ok {
		return countedDegreeOracle{countedOracle: c, jd: jd}
	}
	return c
}
