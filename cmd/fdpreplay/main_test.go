package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fdp"
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
				var buf bytes.Buffer
				if _, err := trace.RecordRun(g.scn, &buf, sim.RunOptions{MaxSteps: 200000}); err != nil {
					t.Fatalf("recording %s: %v", g.name, err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
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
