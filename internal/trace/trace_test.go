package trace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/diffval"
	"fdp/internal/framework"
	"fdp/internal/oracle"
	"fdp/internal/overlay"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

func testScenario(n int, seed int64) trace.Scenario {
	return trace.Scenario{
		N:             n,
		Topology:      "line",
		LeaveFraction: 0.3,
		Pattern:       "random",
		Variant:       "FDP",
		Oracle:        "SINGLE",
		Seed:          seed,
		Scheduler:     "random",
	}
}

// record runs the scenario to completion and returns the journal bytes plus
// the parsed form.
func record(t *testing.T, s trace.Scenario, maxSteps int) ([]byte, trace.Header, []trace.Record, sim.RunResult) {
	t.Helper()
	var buf bytes.Buffer
	res, err := trace.RecordRun(s, &buf, sim.RunOptions{MaxSteps: maxSteps})
	if err != nil {
		t.Fatalf("RecordRun: %v", err)
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	return buf.Bytes(), hdr, recs, res
}

func TestScenarioRoundTrip(t *testing.T) {
	cfg := churn.Config{
		N: 9, Topology: churn.TopoRing, LeaveFraction: 0.5,
		Pattern: churn.LeaveArticulation,
		Corrupt: churn.Corruption{FlipBeliefs: 0.1, RandomAnchors: 0.2, JunkMessages: 3},
		Oracle:  oracle.NIDEC{}, Seed: 11, Components: 2,
	}
	s := trace.ScenarioFor(cfg, "fifo")
	back, err := s.ChurnConfig()
	if err != nil {
		t.Fatalf("ChurnConfig: %v", err)
	}
	if back.N != cfg.N || back.Topology != cfg.Topology || back.LeaveFraction != cfg.LeaveFraction ||
		back.Pattern != cfg.Pattern || back.Corrupt != cfg.Corrupt || back.Variant != cfg.Variant ||
		back.Seed != cfg.Seed || back.Components != cfg.Components {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, cfg)
	}
	if back.Oracle == nil || back.Oracle.Name() != "NIDEC" {
		t.Fatalf("oracle did not round-trip: %v", back.Oracle)
	}
	if _, err := (trace.Scenario{N: 3, Topology: "moebius", Pattern: "random", Variant: "FDP"}).ChurnConfig(); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := trace.OracleByName("DELPHI"); err == nil {
		t.Fatal("unknown oracle accepted")
	}
	if _, err := trace.SchedulerByName("chaotic", 1); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	s := testScenario(12, 3)
	raw, hdr, recs, res := record(t, s, 50000)
	if !res.Converged {
		t.Fatalf("run did not converge in %d steps", res.Steps)
	}
	if hdr.Version != trace.Version || hdr.Engine != trace.EngineSim || !reflect.DeepEqual(hdr.Scenario, s) {
		t.Fatalf("header did not round-trip: %+v", hdr)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	// Re-serialization is byte-stable.
	var buf bytes.Buffer
	if err := trace.WriteJournal(&buf, hdr, recs); err != nil {
		t.Fatalf("WriteJournal: %v", err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("read+rewrite changed journal bytes")
	}
	// Causal identities are unique and deliveries carry their message.
	seen := make(map[uint64]int, len(recs))
	for i, r := range recs {
		if r.CID == 0 {
			t.Fatalf("record %d has no CID: %+v", i, r)
		}
		if j, dup := seen[r.CID]; dup {
			t.Fatalf("records %d and %d share cid %d", j, i, r.CID)
		}
		seen[r.CID] = i
		if r.Kind == "deliver" && r.MsgID == 0 {
			t.Fatalf("delivery without message identity: %+v", r)
		}
	}
}

func TestReplayByteIdentical(t *testing.T) {
	s := testScenario(12, 5)
	raw, hdr, recs, _ := record(t, s, 50000)
	div, err := trace.VerifyReplay(hdr, recs)
	if err != nil {
		t.Fatalf("VerifyReplay: %v", err)
	}
	if div != nil {
		t.Fatalf("replay diverged: %v", div)
	}
	replayed, err := trace.Replay(hdr, recs)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJournal(&buf, hdr, replayed); err != nil {
		t.Fatalf("WriteJournal: %v", err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("replayed journal is not byte-identical to the recording")
	}
}

func TestReplayRejectsRuntimeJournal(t *testing.T) {
	hdr := trace.Header{Version: trace.Version, Engine: trace.EngineRuntime, Scenario: testScenario(4, 1)}
	if _, err := trace.Replay(hdr, nil); err == nil {
		t.Fatal("runtime journal replayed")
	}
}

func TestReplayStallsOnPerturbedSchedule(t *testing.T) {
	s := testScenario(12, 7)
	_, hdr, recs, _ := record(t, s, 50000)
	perturbed := append([]trace.Record(nil), recs...)
	target := -1
	for i := range perturbed {
		if perturbed[i].Kind == "deliver" {
			target = i
		}
	}
	if target < 0 {
		t.Fatal("no delivery to perturb")
	}
	perturbed[target].MsgSeq = 1 << 60 // no such message: the action can never validate
	_, err := trace.Replay(hdr, perturbed)
	var re *trace.ReplayError
	if !errors.As(err, &re) {
		t.Fatalf("want ReplayError, got %v", err)
	}
	// The failing action is the perturbed delivery — count schedule entries
	// up to and including target.
	want := 0
	for i := 0; i <= target; i++ {
		if perturbed[i].Kind == "timeout" || perturbed[i].Kind == "deliver" {
			want++
		}
	}
	if re.ActionIndex != want-1 {
		t.Fatalf("stall at action %d, want %d", re.ActionIndex, want-1)
	}
}

func TestDiffPinpointsFirstDivergence(t *testing.T) {
	s := testScenario(12, 9)
	_, _, recs, _ := record(t, s, 50000)
	if len(recs) < 20 {
		t.Fatalf("journal too short: %d records", len(recs))
	}

	// Field perturbation: the first difference is reported by CID and field.
	perturbed := append([]trace.Record(nil), recs...)
	k := len(perturbed) / 2
	perturbed[k].Proc = "p999"
	div := trace.Diff(recs, perturbed)
	if div == nil {
		t.Fatal("perturbation not detected")
	}
	if div.CID != recs[k].CID || div.Field != "proc" || div.AIndex != k || div.BIndex != k {
		t.Fatalf("wrong divergence: %+v (perturbed record %d cid=%d)", div, k, recs[k].CID)
	}
	if !strings.Contains(div.String(), "proc") {
		t.Fatalf("report does not name the field: %s", div)
	}

	// Missing event: the first unmatched CID is reported.
	missing := append(append([]trace.Record(nil), recs[:k]...), recs[k+1:]...)
	div = trace.Diff(recs, missing)
	if div == nil {
		t.Fatal("missing record not detected")
	}
	if div.CID != recs[k].CID || div.BIndex != -1 {
		t.Fatalf("wrong divergence for missing record: %+v", div)
	}

	// Schedule-dependent fields do not trip the causal diff...
	noisy := append([]trace.Record(nil), recs...)
	noisy[k].Step += 1000
	noisy[k].Clock += 7
	if div := trace.Diff(recs, noisy); div != nil {
		t.Fatalf("causal diff tripped on timing noise: %+v", div)
	}
	// ...but the strict diff does.
	if div := trace.DiffStrict(recs, noisy); div == nil || div.CID != recs[k].CID {
		t.Fatalf("strict diff missed timing perturbation: %+v", div)
	}

	if div := trace.Diff(recs, recs); div != nil {
		t.Fatalf("self-diff diverged: %+v", div)
	}
}

func TestSpansOnePerLeaver64(t *testing.T) {
	s := testScenario(64, 13)
	s.LeaveFraction = 0.25
	_, _, recs, res := record(t, s, 400000)
	if !res.Converged {
		t.Fatalf("64-process run did not converge in %d steps", res.Steps)
	}
	if res.Stats.Exits == 0 {
		t.Fatal("no exits in a converged FDP run with leavers")
	}
	spans := trace.BuildSpans(recs)
	if len(spans) != res.Stats.Exits {
		t.Fatalf("span count %d != gone count %d", len(spans), res.Stats.Exits)
	}
	seen := make(map[string]bool)
	for _, sp := range spans {
		if seen[sp.Proc] {
			t.Fatalf("two spans for %s", sp.Proc)
		}
		seen[sp.Proc] = true
		if !sp.Exited || sp.End == nil || sp.End.Kind != "exit" {
			t.Fatalf("span for %s is not a complete departure: %+v", sp.Proc, sp)
		}
		if len(sp.Actions) == 0 {
			t.Fatalf("span for %s has no trigger actions", sp.Proc)
		}
		if sp.EndStep() < sp.StartStep() {
			t.Fatalf("span for %s ends before it starts", sp.Proc)
		}
		tree := sp.Tree()
		if !strings.Contains(tree, "departure "+sp.Proc) || !strings.Contains(tree, "exit") {
			t.Fatalf("tree rendering incomplete:\n%s", tree)
		}
	}
	if out := trace.SpanTrees(spans); strings.Count(out, "departure ") != len(spans) {
		t.Fatal("SpanTrees did not render every span")
	}
}

func TestChromeExportValidates(t *testing.T) {
	s := testScenario(64, 13)
	s.LeaveFraction = 0.25
	_, hdr, recs, res := record(t, s, 400000)
	spans := trace.BuildSpans(recs)

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, hdr, recs); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var tr trace.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	begins := make(map[string]int)
	ends := make(map[string]int)
	nX := 0
	for i, e := range tr.TraceEvents {
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		switch e.Ph {
		case "M":
		case "X":
			nX++
			if e.Dur <= 0 {
				t.Fatalf("complete event %d has no duration", i)
			}
		case "b", "e":
			if e.Cat != "departure" || e.ID == "" {
				t.Fatalf("span event %d lacks category or id: %+v", i, e)
			}
			if e.Ph == "b" {
				begins[e.ID]++
			} else {
				ends[e.ID]++
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, e.Ph)
		}
	}
	if nX != len(recs) {
		t.Fatalf("%d complete events for %d records", nX, len(recs))
	}
	if len(begins) != len(spans) || len(spans) != res.Stats.Exits {
		t.Fatalf("%d departure spans exported, want %d (= gone count %d)", len(begins), len(spans), res.Stats.Exits)
	}
	for id, n := range begins {
		if n != 1 || ends[id] != 1 {
			t.Fatalf("span %s has %d begins / %d ends", id, n, ends[id])
		}
	}
}

// TestRuntimeJournal records a concurrent-runtime journal through the event
// sink, checks it parses and diffs, and checks replay refuses it.
func TestRuntimeJournal(t *testing.T) {
	s := testScenario(16, 21)
	cfg, err := s.ChurnConfig()
	if err != nil {
		t.Fatalf("ChurnConfig: %v", err)
	}
	scn := churn.Build(cfg)
	want := len(scn.LeavingNodes())
	rt := diffval.MirrorWorld(scn.World, cfg.Oracle)

	var buf bytes.Buffer
	jw := trace.NewWriter(&buf, trace.Header{Version: trace.Version, Engine: trace.EngineRuntime, Scenario: s})
	rt.AddEventHook(jw.Record)
	rt.Start()
	for i := 0; i < 20000 && rt.Gone() < uint64(want); i++ {
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	if jw.Err() != nil {
		t.Fatalf("journal writer: %v", jw.Err())
	}
	if rt.Gone() != uint64(want) {
		t.Fatalf("runtime settled %d of %d leavers", rt.Gone(), want)
	}

	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if hdr.Engine != trace.EngineRuntime {
		t.Fatalf("engine = %q", hdr.Engine)
	}
	if jw.Count() != len(recs) {
		t.Fatalf("writer counted %d records, journal has %d", jw.Count(), len(recs))
	}
	if _, err := trace.Replay(hdr, recs); err == nil {
		t.Fatal("runtime journal replayed")
	}
	// Spans still reconstruct (every leaver exited).
	spans := trace.BuildSpans(recs)
	if len(spans) != want {
		t.Fatalf("%d spans for %d leavers", len(spans), want)
	}
	// And a perturbed copy diffs to the exact record.
	perturbed := append([]trace.Record(nil), recs...)
	k := len(perturbed) * 2 / 3
	perturbed[k].Parent = perturbed[k].Parent + 1
	div := trace.Diff(recs, perturbed)
	if div == nil || div.CID != recs[k].CID || div.Field != "parent" {
		t.Fatalf("wrong divergence: %+v", div)
	}
}

// A journal recorded with mid-run strike waves must replay byte-identically:
// the header records each wave at the step it actually fired, and Replay
// re-applies the same corruption (same wave seed) at the same step boundary.
func TestStruckJournalReplaysByteIdentically(t *testing.T) {
	s := testScenario(12, 7)
	s.Strikes = []trace.StrikeSpec{
		{After: 40, FlipBeliefs: 0.5, JunkMessages: 4},
		{After: 120, ScrambleAnchors: 0.6, DuplicateMessages: 3},
	}
	raw, hdr, recs, res := record(t, s, 400000)
	if !res.Converged {
		t.Fatalf("struck run did not converge: %+v", res)
	}
	if len(hdr.Scenario.Strikes) != 2 {
		t.Fatalf("header strikes = %+v", hdr.Scenario.Strikes)
	}
	for i, sp := range hdr.Scenario.Strikes {
		if sp.After < s.Strikes[i].After {
			// Actual fire step can only move earlier if the run stalled; with
			// MaxSteps this large both waves should land exactly on request.
			t.Fatalf("wave %d fired at %d, requested %d", i, sp.After, s.Strikes[i].After)
		}
	}
	div, err := trace.VerifyReplay(hdr, recs)
	if err != nil {
		t.Fatalf("VerifyReplay: %v", err)
	}
	if div != nil {
		t.Fatalf("struck journal diverged on replay: %+v", div)
	}
	// Re-recording the same scenario is byte-identical end to end.
	var buf bytes.Buffer
	if _, err := trace.RecordRun(s, &buf, sim.RunOptions{MaxSteps: 400000}); err != nil {
		t.Fatalf("re-record: %v", err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("re-recording a struck scenario changed journal bytes")
	}
}

func TestExplicitLeaversRoundTripThroughJournal(t *testing.T) {
	s := testScenario(8, 3)
	s.LeaveFraction = 0
	s.LeaverIndices = []int{1, 5}
	_, hdr, recs, _ := record(t, s, 400000)
	if got := hdr.Scenario.LeaverIndices; len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("leaver indices did not round-trip: %v", got)
	}
	div, err := trace.VerifyReplay(hdr, recs)
	if err != nil || div != nil {
		t.Fatalf("replay with pinned leavers failed: div=%+v err=%v", div, err)
	}
}

type testOracle struct{ oracle.Single }

func (testOracle) Name() string { return "TEST-REGISTERED" }

func TestOracleRegistry(t *testing.T) {
	if _, err := trace.OracleByName("TEST-REGISTERED"); err == nil {
		t.Fatal("unregistered oracle must not resolve")
	}
	trace.RegisterOracle("TEST-REGISTERED", func() sim.Oracle { return testOracle{} })
	orc, err := trace.OracleByName("TEST-REGISTERED")
	if err != nil {
		t.Fatalf("OracleByName after register: %v", err)
	}
	if orc.Name() != "TEST-REGISTERED" {
		t.Fatalf("wrong oracle: %v", orc.Name())
	}
}

// A scenario whose build cannot succeed surfaces the churn error instead of
// panicking — journals with nonsense headers fail replay cleanly.
func TestBuildScenarioRejectsBadConfig(t *testing.T) {
	s := testScenario(0, 1)
	if _, err := s.BuildScenario(); err == nil {
		t.Fatal("n=0 scenario must not build")
	}
	s = testScenario(6, 1)
	s.Topology = "hypercube"
	if _, err := s.BuildScenario(); err == nil {
		t.Fatal("hypercube n=6 scenario must not build")
	}
}

// A P′ scenario's overlay and pending junk round-trip through the header and
// replay byte-identically; a custom P is recorded by name and refused on
// replay, never rebuilt as another overlay.
func TestOverlayScenarioRoundTrip(t *testing.T) {
	s := testScenario(10, 2)
	s.Topology, s.Overlay, s.RandomAnchors, s.JunkPending = "random", "skiplist", 0.3, 4
	_, hdr, recs, res := record(t, s, 400000)
	if !res.Converged {
		t.Fatal("P′ recording did not converge")
	}
	if hdr.Scenario.Overlay != "skiplist" || hdr.Scenario.JunkPending != 4 {
		t.Fatalf("header scenario %+v", hdr.Scenario)
	}
	if div, err := trace.VerifyReplay(hdr, recs); err != nil || div != nil {
		t.Fatalf("P′ replay failed: div=%+v err=%v", div, err)
	}

	custom := trace.ScenarioFor(churn.Config{
		N: 6, Overlay: framework.Factory(func(keys overlay.Keys) overlay.Protocol { return overlay.NewLinearize(keys) }),
	}, "random")
	if custom.Overlay != "custom" {
		t.Fatalf("custom overlay recorded as %q", custom.Overlay)
	}
	if _, err := custom.BuildScenario(); err == nil || !strings.Contains(err.Error(), `unknown overlay "custom"`) {
		t.Fatalf("custom overlay replay: err = %v", err)
	}
}
