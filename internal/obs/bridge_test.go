package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/parallel"
	"fdp/internal/sim"
)

func churnScenario(seed int64) *churn.Scenario {
	return churn.Build(churn.Config{
		N: 16, Topology: churn.TopoRandom, LeaveFraction: 0.5, Pattern: churn.LeaveRandom,
		Corrupt: churn.Corruption{FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: 4},
		Variant: core.VariantFDP, Oracle: oracle.Single{}, Seed: seed,
	})
}

// TestInstrumentWorldServesDuringRun drives an FDP churn run with the
// world instrumented and scrapes the /metrics endpoint from inside the run
// (OnStep): the acceptance criterion that the exposition is non-empty
// DURING a run, not only after it.
func TestInstrumentWorldServesDuringRun(t *testing.T) {
	s := churnScenario(3)
	reg := NewRegistry()
	InstrumentWorld(s.World, reg)

	srv := httptest.NewServer(NewServeMux(reg))
	defer srv.Close()

	var midRun string
	res := sim.Run(s.World, sim.NewRandomScheduler(3, 0), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 200000, CheckSafety: true,
		OnStep: func(w *sim.World) {
			if midRun == "" && w.Steps() == 50 {
				resp, err := srv.Client().Get(srv.URL + "/metrics")
				if err != nil {
					t.Fatalf("GET /metrics: %v", err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				midRun = string(body)
			}
		},
	})
	if !res.Converged {
		t.Fatalf("churn run did not converge: %+v", res)
	}
	if !strings.Contains(midRun, `fdp_events_total{engine="sim",kind="send"}`) {
		t.Fatalf("mid-run scrape missing send counter:\n%s", midRun)
	}
	if !strings.Contains(midRun, "fdp_mailbox_depth_bucket") {
		t.Fatalf("mid-run scrape missing depth histogram:\n%s", midRun)
	}

	// Terminal state: every leaver exited, and the time-to-exit histogram
	// saw exactly one observation per exit.
	exits := reg.Counter(eventSeries("sim", sim.EvExit), "").Value()
	if exits == 0 || exits != uint64(res.Stats.Exits) {
		t.Fatalf("exit counter = %d, stats say %d", exits, res.Stats.Exits)
	}
	tte := reg.Histogram(MetricTimeToExitSteps, "", nil)
	if tte.Count() != exits {
		t.Fatalf("time-to-exit count = %d, want %d", tte.Count(), exits)
	}
	age := reg.Histogram(MetricMessageAge, "", nil)
	if age.Count() == 0 {
		t.Fatal("message-age histogram empty after a churn run")
	}
}

// TestInstrumentWorldFanOut pins that instrumenting a world does not
// displace an already-attached hook (the hook fan-out contract).
func TestInstrumentWorldFanOut(t *testing.T) {
	s := churnScenario(5)
	var hooked [sim.NumEventKinds]uint64
	s.World.AddEventHook(func(e sim.Event) { hooked[e.Kind]++ })
	reg := NewRegistry()
	InstrumentWorld(s.World, reg)

	res := sim.Run(s.World, sim.NewRandomScheduler(5, 0), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 200000,
	})
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	if hooked[sim.EvSend] == 0 {
		t.Fatal("earlier hook saw no events after InstrumentWorld was added")
	}
	sends := reg.Counter(eventSeries("sim", sim.EvSend), "").Value()
	if sends == 0 {
		t.Fatal("registry saw no send events")
	}
	if got := hooked[sim.EvExit]; got != reg.Counter(eventSeries("sim", sim.EvExit), "").Value() {
		t.Fatalf("hook and registry disagree on exits: %d vs %d",
			got, reg.Counter(eventSeries("sim", sim.EvExit), "").Value())
	}
}

func TestInstrumentRuntime(t *testing.T) {
	s := churnScenario(7)
	leavers := len(s.LeavingNodes())
	rt := mirror(s.World, oracle.Single{})
	// A hook attached first must survive instrumentation: the runtime fans
	// out like the world does.
	var hookedExits atomic.Uint64
	rt.AddEventHook(func(e sim.Event) {
		if e.Kind == sim.EvExit {
			hookedExits.Add(1)
		}
	})
	reg := NewRegistry()
	InstrumentRuntime(rt, reg)

	ok := rt.RunUntil(func(w *sim.World) bool { return w.Legitimate(sim.FDP) },
		time.Millisecond, 30*time.Second)
	if !ok {
		t.Fatal("runtime did not converge")
	}
	if rt.Gone() != uint64(leavers) {
		t.Fatalf("gone = %d, want %d leavers", rt.Gone(), leavers)
	}
	exits := reg.Counter(eventSeries("runtime", sim.EvExit), "").Value()
	if exits != uint64(leavers) {
		t.Fatalf("runtime exit counter = %d, want %d", exits, leavers)
	}
	if got := hookedExits.Load(); got != exits {
		t.Fatalf("earlier hook saw %d exits, registry %d", got, exits)
	}
	tte := reg.Histogram(MetricTimeToExitSeconds, "", nil)
	if tte.Count() != uint64(leavers) {
		t.Fatalf("time-to-exit count = %d, want %d", tte.Count(), leavers)
	}
	if got := len(rt.ExitLatencies()); got != leavers {
		t.Fatalf("ExitLatencies len = %d, want %d", got, leavers)
	}
	out := reg.String()
	for _, want := range []string{
		`fdp_events_total{engine="runtime",kind="send"}`,
		"fdp_runtime_actions_total",
		"fdp_time_to_exit_seconds_count",
		`fdp_runtime_outbox_flushes_total{shard="0"}`,
		`fdp_runtime_outbox_messages_total{shard="0"}`,
		`fdp_runtime_inbox_absorbs_total{shard="0"}`,
		`fdp_runtime_ledger_handoffs_total{shard="0"}`,
		`fdp_runtime_exit_commits_total{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, out)
		}
	}
}

// TestInstrumentRuntimeSeededTimeToExit instruments a RunSeeded run, whose
// clock is virtual and whose StartTime stays zero: every time-to-exit
// observation is an exit's own stamp, none past the run's last.
func TestInstrumentRuntimeSeededTimeToExit(t *testing.T) {
	s := churnScenario(3)
	leavers := len(s.LeavingNodes())
	rt := mirror(s.World, oracle.Single{})
	reg := NewRegistry()
	InstrumentRuntime(rt, reg)
	if !rt.RunSeeded(3, func(w *sim.World) bool { return w.Legitimate(sim.FDP) }, time.Millisecond, 10*time.Second) {
		t.Fatal("seeded runtime did not converge")
	}
	stamps := rt.ExitLatencies()
	if len(stamps) != leavers {
		t.Fatalf("ExitLatencies len = %d, want %d", len(stamps), leavers)
	}
	last := stamps[len(stamps)-1].Seconds()
	var want float64
	for _, d := range stamps {
		want += d.Seconds()
	}
	tte := reg.Histogram(MetricTimeToExitSeconds, "", nil)
	if tte.Count() != uint64(leavers) {
		t.Fatalf("time-to-exit count = %d, want %d", tte.Count(), leavers)
	}
	for i := sort.SearchFloat64s(tte.bounds, last) + 1; i < len(tte.buckets); i++ {
		if n := tte.buckets[i].Load(); n > 0 {
			t.Fatalf("%d time-to-exit observation(s) above %gs, past the last exit stamp %gs", n, tte.bounds[i-1], last)
		}
	}
	if got := tte.Sum(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("time-to-exit observations sum to %gs, the exit stamps to %gs", got, want)
	}
}

// TestInstrumentRuntimeSharedRegistry instruments two runs into one registry,
// as fdpbench -serve does per trial: the per-kind series is the sum of both
// runtimes' counts and agrees with the histograms beside it.
func TestInstrumentRuntimeSharedRegistry(t *testing.T) {
	reg := NewRegistry()
	var want [sim.NumEventKinds]uint64
	for _, seed := range []int64{7, 8} {
		rt := mirror(churnScenario(seed).World, oracle.Single{})
		InstrumentRuntime(rt, reg)
		if !rt.RunUntil(func(w *sim.World) bool { return w.Legitimate(sim.FDP) },
			time.Millisecond, 30*time.Second) {
			t.Fatalf("seed %d: runtime did not converge", seed)
		}
		for k := range want {
			want[k] += rt.KindCount(sim.EventKind(k))
		}
	}
	for k, n := range want {
		kind := sim.EventKind(k)
		if got := reg.Counter(eventSeries("runtime", kind), "").Value(); got != n {
			t.Fatalf("%s series = %d, want the two runs' sum %d", kind, got, n)
		}
	}
	if got := reg.Histogram(MetricTimeToExitSeconds, "", nil).Count(); got != want[sim.EvExit] || got == 0 {
		t.Fatalf("time-to-exit count %d, exit series %d", got, want[sim.EvExit])
	}
	if got := reg.Histogram(MetricMailboxDepth, "", nil).Count(); got != want[sim.EvSend] {
		t.Fatalf("depth count %d, send series %d", got, want[sim.EvSend])
	}
}

func TestCountOracle(t *testing.T) {
	reg := NewRegistry()
	orc := CountOracle(oracle.Single{}, reg)
	if orc.Name() != (oracle.Single{}).Name() {
		t.Fatalf("wrapper changed oracle name to %q", orc.Name())
	}
	jd, ok := orc.(interface{ JudgeDegree(int) bool })
	if !ok {
		t.Fatal("wrapper dropped Single's JudgeDegree — runtime would lose the degree fast path")
	}
	if !jd.JudgeDegree(1) || jd.JudgeDegree(2) {
		t.Fatal("wrapped JudgeDegree no longer matches Single's verdict")
	}
	if _, bad := CountOracle(oracle.NIDEC{}, reg).(interface{ JudgeDegree(int) bool }); bad {
		t.Fatal("wrapper invented JudgeDegree for a stateful oracle")
	}
	s := churn.Build(churn.Config{
		N: 8, Topology: churn.TopoRing, LeaveFraction: 0.4, Pattern: churn.LeaveRandom,
		Variant: core.VariantFDP, Oracle: orc, Seed: 1,
	})
	res := sim.Run(s.World, sim.NewRandomScheduler(1, 0), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 200000,
	})
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	if reg.Counter(MetricOracleCalls, "").Value() == 0 {
		t.Fatal("oracle-call counter stayed zero")
	}
	if CountOracle(nil, reg) != nil {
		t.Fatal("CountOracle(nil) should stay nil")
	}
}

// mirror transplants a built world onto the concurrent runtime — the same
// shape as diffval.MirrorWorld, duplicated here to keep obs free of a
// diffval dependency in tests.
func mirror(w *sim.World, orc sim.Oracle) *parallel.Runtime {
	src := w.Clone()
	rt := parallel.NewRuntime(orc)
	for _, r := range src.Refs() {
		if src.LifeOf(r) == sim.Gone {
			continue
		}
		rt.AddProcess(r, src.ModeOf(r), src.ProtocolOf(r))
	}
	for _, r := range src.Refs() {
		if src.LifeOf(r) == sim.Gone {
			continue
		}
		if src.LifeOf(r) == sim.Asleep {
			rt.ForceAsleep(r)
		}
		for _, m := range src.ChannelSnapshot(r) {
			rt.Enqueue(r, m)
		}
	}
	return rt
}
