package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fdp"
)

func runSim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb, nil)
	return code, out.String(), errb.String()
}

// TestSeededRunReport pins one seeded report byte for byte: the run the
// README quotes, unchanged by the move to the shared name table.
func TestSeededRunReport(t *testing.T) {
	code, out, errs := runSim("-n", "32", "-topology", "random", "-leave", "0.5", "-seed", "7")
	want := "converged:        true\n" +
		"steps:            768\n" +
		"messages sent:    541\n" +
		"  forward:        97\n" +
		"  present:        444\n" +
		"exits:            16\n" +
		"max channel:      10\n" +
		"safety violated:  false\n"
	if code != 0 || out != want || errs != "" {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s\nwant stdout:\n%s", code, out, errs, want)
	}
}

// TestEveryScenarioNameRuns: each topology and pattern the builder declares
// is reachable under the name journal headers print, and the header of the
// run says that name back.
func TestEveryScenarioNameRuns(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	for _, topo := range fdp.Topologies() {
		for _, pat := range fdp.Patterns() {
			code, out, errs := runSim("-n", "8", "-topology", topo.String(), "-pattern", pat.String(), "-journal", journal)
			if code != 0 {
				t.Fatalf("-topology %s -pattern %s: exit %d\n%s%s", topo, pat, code, out, errs)
			}
			raw, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			header, _, _ := strings.Cut(string(raw), "\n")
			for _, want := range []string{`"topology":"` + topo.String() + `"`, `"pattern":"` + pat.String() + `"`} {
				if !strings.Contains(header, want) {
					t.Fatalf("-topology %s -pattern %s: journal header lacks %s:\n%s", topo, pat, want, header)
				}
			}
		}
	}
	for _, args := range [][]string{
		{"-variant", "fsp"}, {"-oracle", "nidec"}, {"-scheduler", "rounds"},
		{"-scheduler", "adversarial"}, {"-scheduler", "fifo"}, {"-oracle", "exitsafe"},
	} {
		if code, out, errs := runSim(append([]string{"-n", "8"}, args...)...); code != 0 {
			t.Errorf("%v: exit %d\n%s%s", args, code, out, errs)
		}
	}
}

// TestUnknownNamesExitTwo: at the parent a name missing from a per-binary map
// was the map's zero value — "-topology hypercub -oracle singel" ran a line
// under SINGLE and exited 0.
func TestUnknownNamesExitTwo(t *testing.T) {
	for flagName, tc := range map[string]struct{ bad, known string }{
		"topology":  {"hypercub", "hypercube, random, skip-graph, de-bruijn, random-regular"},
		"pattern":   {"allbutone", "random, articulation, block, all-but-one, neighborhood"},
		"oracle":    {"singel", "single, nidec, exitsafe, timeout, unsafe"},
		"scheduler": {"round", "random, rounds, adversarial, fifo"},
		"variant":   {"fps", "fdp, fsp"},
	} {
		code, out, errs := runSim("-n", "8", "-"+flagName, tc.bad)
		if code != 2 || out != "" {
			t.Errorf("-%s %s: exit %d, stdout %q", flagName, tc.bad, code, out)
		}
		if !strings.Contains(errs, "-"+flagName) || !strings.Contains(errs, tc.known) {
			t.Errorf("-%s %s: stderr names neither the flag nor the known values:\n%s", flagName, tc.bad, errs)
		}
	}
	if code, _, errs := runSim("-n", "12", "-topology", "hypercube"); code != 2 || !strings.Contains(errs, "power-of-two") {
		t.Errorf("hypercube on 12 nodes: exit %d, stderr %q", code, errs)
	}
}

// TestParallelReportsSafetyViolations: -parallel judges Lemma 2 on the frozen
// world once the runtime stopped. Under the unsafe oracle, leavers at the
// articulation points of a line exit at once and split it; at the parent
// -parallel printed "safety violated:  false" whatever happened.
func TestParallelReportsSafetyViolations(t *testing.T) {
	for seed := 1; seed <= 20; seed++ {
		code, out, errs := runSim("-parallel", "-oracle", "unsafe", "-topology", "line", "-pattern", "articulation",
			"-n", "16", "-timeout", "300ms", "-seed", strconv.Itoa(seed))
		if strings.Contains(out, "safety violated:  true") {
			if code != 1 || strings.Contains(out, "converged:        true") {
				t.Fatalf("seed %d: a violation reported with exit %d\n%s%s", seed, code, out, errs)
			}
			return
		}
	}
	t.Fatal("no -parallel -oracle unsafe run on an articulation line reported a violation in 20 seeds")
}

// TestParallelStops: a closed stop channel ends a -parallel run like a
// sequential one, with "interrupted before convergence" and exit 0. At the
// parent a goroutine called os.Exit(130) instead, which killed the test
// binary.
func TestParallelStops(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	var out, errb bytes.Buffer
	code := run([]string{"-parallel", "-n", "64", "-seed", "3"}, &out, &errb, stop)
	if code != 0 || !strings.Contains(out.String(), "interrupted before convergence") {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}
