package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdp/internal/trace"
)

// TestSweepJournalDir smoke-tests the sweep with -journal-dir: every run
// must leave a journal named after its sweep coordinates, and each journal
// must satisfy the replay determinism contract.
func TestSweepJournalDir(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-n", "10", "-leave", "0.3", "-corrupt", "0", "-seeds", "2",
		"-topology", "line", "-journal-dir", dir,
	}, &stdout, &stderr, nil)
	if code != 0 {
		t.Fatalf("fdpsweep exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 { // header + 2 seeds
		t.Fatalf("expected 3 CSV lines, got %d:\n%s", len(lines), stdout.String())
	}

	for seed := 0; seed < 2; seed++ {
		name := "n10_leave0.30_corrupt0.00_seed" + string(rune('0'+seed)) + ".jsonl"
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("journal missing: %v", err)
		}
		hdr, recs, err := trace.ReadJournal(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hdr.Engine != trace.EngineSim || len(recs) == 0 {
			t.Fatalf("%s: engine=%q with %d records", name, hdr.Engine, len(recs))
		}
		div, err := trace.VerifyReplay(hdr, recs)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if div != nil {
			t.Fatalf("%s: replay diverged: %s", name, div)
		}
	}
}

// TestSweepNoJournalDir keeps the plain CSV path intact.
func TestSweepNoJournalDir(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "8", "-leave", "0.25", "-corrupt", "0", "-seeds", "1", "-topology", "line"}, &stdout, &stderr, nil)
	if code != 0 {
		t.Fatalf("fdpsweep exited %d\nstderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "n,leave,corrupt,seed,") {
		t.Fatalf("CSV header missing:\n%s", stdout.String())
	}
}

// TestSweepRejectsAnUnhostableTopology: a size the topology cannot host is
// a diagnosed exit 2, not a panic.
func TestSweepRejectsAnUnhostableTopology(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "12", "-seeds", "1", "-topology", "hypercube"}, &stdout, &stderr, nil)
	if code != 2 || !strings.Contains(stderr.String(), "invalid configuration") {
		t.Fatalf("fdpsweep exited %d\nstderr: %s", code, stderr.String())
	}
}
