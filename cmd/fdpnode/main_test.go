package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fdp/internal/node"
	"fdp/internal/trace"
)

// writeRun runs a seeded three-node loopback churn (n = 12) and writes its
// artifacts into dir the way run mode names them.
func writeRun(t *testing.T, dir string) {
	t.Helper()
	scn := trace.Scenario{N: 12, Topology: "line", LeaveFraction: 0.4,
		Pattern: "random", Variant: "FDP", Oracle: "SINGLE", Seed: 42}
	cfgs := make([]node.Config, 3)
	for i := range cfgs {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cfgs[i] = node.Config{ID: i, Nodes: len(cfgs), Scenario: scn, Journal: f,
			MaxWall: 30 * time.Second, Linger: time.Millisecond, RoundEvery: time.Millisecond}
	}
	results, err := node.RunLoopback(cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		writeSummary(t, dir, i, r.Summary)
	}
}

func writeSummary(t *testing.T, dir string, i int, s node.Summary) {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("summary-%d.json", i)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeJudgesTheRun: -merge accepts a converged run's artifacts and
// refuses them once one node's summary no longer lists its exits.
func TestMergeJudgesTheRun(t *testing.T) {
	dir := t.TempDir()
	writeRun(t, dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-merge", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("merge of a converged run: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "converged:  true") {
		t.Fatalf("merge output lacks the verdict:\n%s", stdout.String())
	}

	for i := 0; ; i++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("summary-%d.json", i)))
		if err != nil {
			t.Fatal("no node reported an exited leaver")
		}
		var s node.Summary
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		if len(s.Exited) == 0 {
			continue
		}
		s.Exited = []int{}
		writeSummary(t, dir, i, s)
		break
	}
	stdout.Reset()
	if code := run([]string{"-merge", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("merge with an emptied exited list: exit %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "problem:") {
		t.Fatalf("merge names no problem:\n%s", stdout.String())
	}
}

func TestParsePeersRefusesTypos(t *testing.T) {
	if m, err := parsePeers("1=127.0.0.1:7451,2=127.0.0.1:7452", 0, 3); err != nil || len(m) != 2 {
		t.Fatalf("valid peers refused: %v %v", m, err)
	}
	for _, c := range []struct{ name, peers, want string }{
		{"own id", "0=127.0.0.1:7450,1=127.0.0.1:7451", "own id"},
		{"missing peer", "1=127.0.0.1:7451", "want 2"},
		{"out of range", "1=127.0.0.1:7451,3=127.0.0.1:7453", "out of range"},
	} {
		if _, err := parsePeers(c.peers, 0, 3); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parsePeers(%q) = %v, want an error naming %q", c.name, c.peers, err, c.want)
		}
	}
}

// TestScrapeNamesTheReadError: a node whose /metrics body is cut short is
// a failed scrape, and the message says why instead of the 200 status.
func TestScrapeNamesTheReadError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "1000")
		fmt.Fprintln(w, `fdp_progress_leavers_remaining{node="0"} 1`)
	}))
	defer srv.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scrape", strings.TrimPrefix(srv.URL, "http://")}, &stdout, &stderr); code != 2 {
		t.Fatalf("scrape of a cut body: exit %d, want 2", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "unexpected EOF") {
		t.Fatalf("scrape error does not name the read error: %q", msg)
	}
}
