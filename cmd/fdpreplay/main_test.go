package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fdp"
	"fdp/internal/node"
	"fdp/internal/parallel"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// Regenerate the golden journals with: go test ./cmd/fdpreplay -update
var update = flag.Bool("update", false, "regenerate the golden journals in testdata")

// goldens are the committed journals that CI holds to the byte-identical
// replay contract. Changing the causal model, the journal encoding or the
// simulator's determinism shows up here first; regenerate deliberately
// with -update and review the diff.
var goldens = []struct {
	name string
	scn  trace.Scenario
}{
	{"seq_fdp_line_n24", trace.Scenario{
		N: 24, Topology: "line", LeaveFraction: 0.3, Pattern: "random",
		Variant: "FDP", Oracle: "SINGLE", Seed: 7, Scheduler: "random",
	}},
	{"seq_fsp_ring_n16", trace.Scenario{
		N: 16, Topology: "ring", LeaveFraction: 0.5, Pattern: "random",
		Variant: "FSP", Seed: 9, Scheduler: "random",
	}},
	{"seq_fdp_sortring_n8", trace.Scenario{
		N: 8, Topology: "random", LeaveFraction: 0.3, Pattern: "random",
		Variant: "FDP", Overlay: "sortring", Oracle: "SINGLE", Seed: 5, Scheduler: "random",
		RandomAnchors: 0.3, JunkPending: 4,
	}},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".jsonl")
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestGoldenJournalsReplayByteIdentically is the CI gate on the replay
// determinism contract: every committed journal must re-drive to the exact
// bytes on disk.
func TestGoldenJournalsReplayByteIdentically(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			path := goldenPath(g.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, recordGolden(t, g.scn), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			code, out, errOut := runCLI(t, path)
			if code != 0 {
				t.Fatalf("fdpreplay %s exited %d\nstdout: %s\nstderr: %s", path, code, out, errOut)
			}
			if !strings.Contains(out, "replay OK") {
				t.Fatalf("unexpected verify output: %s", out)
			}
		})
	}
}

// recordGolden records a sequential golden's scenario, as -update writes it.
func recordGolden(t *testing.T, scn trace.Scenario) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.RecordRun(scn, &buf, sim.RunOptions{MaxSteps: 200000}); err != nil {
		t.Fatalf("recording: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenJournalsRecordByteIdentically holds the recording side to the
// same contract: recording each sequential golden's scenario again gives
// the committed bytes.
func TestGoldenJournalsRecordByteIdentically(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(g.name))
			if err != nil {
				t.Fatal(err)
			}
			if got := recordGolden(t, g.scn); !bytes.Equal(got, want) {
				t.Fatalf("recording %s gave %d bytes that differ from the committed %d (regenerate deliberately with -update)",
					g.name, len(got), len(want))
			}
		})
	}
}

// meshGolden is a seeded three-node run on the in-process loopback
// (node.RunLoopback) whose per-node journals are committed next to the
// sequential goldens: regenerating them from the seed must give the same
// bytes, so the mesh replays across commits and not only within one.
var meshGolden = struct {
	name string
	scn  trace.Scenario
}{"mesh_fdp_line_n3", trace.Scenario{
	N: 3, Topology: "line", LeaveFraction: 0.5, Pattern: "random",
	Variant: "FDP", Oracle: "SINGLE", Seed: 1,
}}

// TestMeshGoldenJournalsRegenerateByteIdentically re-runs the mesh golden
// and joins the committed journals: exit 0, no duplicate delivery.
func TestMeshGoldenJournalsRegenerateByteIdentically(t *testing.T) {
	const nodes = 3
	cfgs := make([]node.Config, nodes)
	bufs := make([]bytes.Buffer, nodes)
	paths := make([]string, nodes)
	for i := range cfgs {
		cfgs[i] = node.Config{ID: i, Nodes: nodes, Scenario: meshGolden.scn, Journal: &bufs[i],
			MaxWall: 30 * time.Second, Linger: 2 * time.Millisecond, RoundEvery: time.Millisecond}
		paths[i] = goldenPath(meshGolden.name + "_node" + strconv.Itoa(i))
	}
	results, err := node.RunLoopback(cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Converged {
			t.Fatalf("node %d did not converge: %+v", i, r.Summary)
		}
		if *update {
			if err := os.WriteFile(paths[i], bufs[i].Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufs[i].Bytes(), want) {
			t.Fatalf("node %d journal differs from %s (regenerate deliberately with -update)", i, paths[i])
		}
	}
	code, out, errOut := runCLI(t, append([]string{"-join"}, paths...)...)
	if code != 0 || !strings.Contains(out, " 0 duplicates") {
		t.Fatalf("fdpreplay -join exited %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
}

// runtimeGolden is a seeded run of the sharded runtime on two shards
// (Runtime.RunSeeded, seeded with the scenario's seed) whose journal is
// committed next to the others: regenerating it must give the same bytes, so
// the runtime replays across commits too.
var runtimeGolden = struct {
	name   string
	scn    trace.Scenario
	shards int
}{"rt_fdp_line_n12", trace.Scenario{
	N: 12, Topology: "line", LeaveFraction: 0.5, Pattern: "random",
	Variant: "FDP", Oracle: "SINGLE", Seed: 1,
}, 2}

// TestRuntimeGoldenJournalRegeneratesByteIdentically re-runs the runtime
// golden and joins the committed journal: exit 0, no duplicate delivery.
// Every poll of the run also holds Lemma 2: no relevant processes
// disconnected.
func TestRuntimeGoldenJournalRegeneratesByteIdentically(t *testing.T) {
	g := runtimeGolden
	scn, err := g.scn.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	variant, err := g.scn.SimVariant()
	if err != nil {
		t.Fatal(err)
	}
	// The build world's processes and channels, moved onto a runtime whose
	// shard count is fixed before the first AddProcess.
	w := scn.World
	rt := parallel.NewRuntime(scn.Config.Oracle)
	rt.SetShards(g.shards)
	for _, r := range w.Refs() {
		rt.AddProcess(r, w.ModeOf(r), w.ProtocolOf(r))
	}
	for _, r := range w.Refs() {
		if w.LifeOf(r) == sim.Asleep {
			rt.ForceAsleep(r)
		}
		for _, m := range w.ChannelSnapshot(r) {
			rt.Enqueue(r, m)
		}
	}
	var buf bytes.Buffer
	jw := trace.NewWriter(&buf, trace.Header{Version: trace.Version, Engine: trace.EngineRuntime,
		Scenario: trace.ScenarioFor(scn.Config, "")})
	rt.AddEventHook(jw.Record)
	intact := true
	legit := func(w *sim.World) bool {
		intact = intact && w.RelevantComponentsIntact()
		return w.Legitimate(variant)
	}
	if !rt.RunSeeded(g.scn.Seed, legit, time.Millisecond, 10*time.Second) {
		t.Fatalf("seeded run did not converge (gone %d)", rt.Gone())
	}
	if !intact {
		t.Fatal("a poll found relevant processes disconnected (Lemma 2)")
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	path := goldenPath(g.name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("runtime journal differs from %s (regenerate deliberately with -update)", path)
	}
	code, out, errOut := runCLI(t, "-join", path)
	if code != 0 || !strings.Contains(out, " 0 duplicates") {
		t.Fatalf("fdpreplay -join exited %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
}

// TestVerifyReportsDivergence perturbs one recorded event and checks the
// verifier refuses the journal.
func TestVerifyReportsDivergence(t *testing.T) {
	hdr, recs := recordTemp(t)
	// Bump the Lamport clock of a mid-journal record: the schedule is
	// untouched, so the replay runs to completion and regenerates the
	// true event — DiffStrict must trip exactly there.
	k := len(recs) / 2
	recs[k].Clock++
	path := writeTemp(t, "perturbed.jsonl", hdr, recs)

	code, out, _ := runCLI(t, path)
	if code != 1 {
		t.Fatalf("verify of perturbed journal exited %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "DIVERGED") {
		t.Fatalf("verify output lacks divergence report: %s", out)
	}
}

// TestDiffPinpointsPerturbedRuntimeJournal is the acceptance check for
// journal alignment: a parallel-engine journal with one deliberately
// perturbed event must be aligned by causal ID to exactly that event.
func TestDiffPinpointsPerturbedRuntimeJournal(t *testing.T) {
	var buf bytes.Buffer
	rep, err := fdp.SimulateParallel(fdp.Config{
		N: 16, LeaveFraction: 0.4, Seed: 21, Journal: &buf,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("parallel run did not converge")
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Engine != trace.EngineRuntime {
		t.Fatalf("engine = %q, want %q", hdr.Engine, trace.EngineRuntime)
	}
	if len(recs) < 4 {
		t.Fatalf("runtime journal too small: %d records", len(recs))
	}

	pathA := writeTemp(t, "runtime_a.jsonl", hdr, recs)
	perturbed := make([]trace.Record, len(recs))
	copy(perturbed, recs)
	k := len(perturbed) / 2
	perturbed[k].Peer = "p999"
	pathB := writeTemp(t, "runtime_b.jsonl", hdr, perturbed)

	code, out, errOut := runCLI(t, "-diff", pathA, pathB)
	if code != 1 {
		t.Fatalf("-diff exited %d, want 1\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	// The report must name the exact first diverging causal event.
	wantCID := "cid=" + strconv.FormatUint(recs[k].CID, 10)
	if !strings.Contains(out, "first divergence at "+wantCID) {
		t.Fatalf("-diff did not pinpoint %s:\n%s", wantCID, out)
	}
	if !strings.Contains(out, `field "peer"`) {
		t.Fatalf("-diff did not name the diverging field:\n%s", out)
	}

	// Identical journals must diff clean.
	code, out, _ = runCLI(t, "-diff", pathA, pathA)
	if code != 0 || !strings.Contains(out, "causally identical") {
		t.Fatalf("self-diff exited %d: %s", code, out)
	}
}

func TestSpansMode(t *testing.T) {
	hdr, recs := recordTemp(t)
	path := writeTemp(t, "spans.jsonl", hdr, recs)
	code, out, errOut := runCLI(t, "-spans", path)
	if code != 0 {
		t.Fatalf("-spans exited %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "departure span(s)") || !strings.Contains(out, "exit") {
		t.Fatalf("-spans output unexpected:\n%.600s", out)
	}
}

// The runtime golden's two lanes interleave by buffer; -spans tells the
// departures of its records in the causal order Join gives them.
func TestSpansModeOrdersRuntimeJournalCausally(t *testing.T) {
	path := goldenPath("rt_fdp_line_n12")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	j, err := trace.Join([]trace.Header{hdr}, [][]trace.Record{recs})
	if err != nil {
		t.Fatal(err)
	}
	spans := trace.BuildSpans(j.Records)
	want := fmt.Sprintf("%d departure span(s)\n", len(spans)) + trace.SpanTrees(spans)
	if code, out, errOut := runCLI(t, "-spans", path); code != 0 || out != want {
		t.Fatalf("-spans exited %d\nstdout:\n%s\nwant:\n%s\nstderr: %s", code, out, want, errOut)
	}
}

func TestChromeMode(t *testing.T) {
	hdr, recs := recordTemp(t)
	path := writeTemp(t, "chrome.jsonl", hdr, recs)
	outPath := filepath.Join(t.TempDir(), "trace.json")
	code, _, errOut := runCLI(t, "-chrome", "-o", outPath, path)
	if code != 0 {
		t.Fatalf("-chrome exited %d\nstderr: %s", code, errOut)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("-chrome output is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("-chrome produced no trace events")
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Error("no arguments must exit 2")
	}
	if code, _, _ := runCLI(t, "-diff", "only-one.jsonl"); code != 2 {
		t.Error("-diff with one journal must exit 2")
	}
	if code, _, errOut := runCLI(t, filepath.Join(t.TempDir(), "missing.jsonl")); code != 2 || errOut == "" {
		t.Error("missing journal must exit 2 with a diagnostic")
	}
}

// recordTemp records a small deterministic sequential run.
func recordTemp(t *testing.T) (trace.Header, []trace.Record) {
	t.Helper()
	scn := trace.Scenario{
		N: 20, Topology: "line", LeaveFraction: 0.3, Pattern: "random",
		Variant: "FDP", Oracle: "SINGLE", Seed: 5, Scheduler: "random",
	}
	var buf bytes.Buffer
	res, err := trace.RecordRun(scn, &buf, sim.RunOptions{MaxSteps: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("recording run did not converge")
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return hdr, recs
}

func writeTemp(t *testing.T, name string, hdr trace.Header, recs []trace.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var buf bytes.Buffer
	if err := trace.WriteJournal(&buf, hdr, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
