package main

import (
	"bytes"
	"strings"
	"testing"

	"fdp/internal/fuzz"
	"fdp/internal/trace"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, make(chan struct{}))
	return code, stdout.String(), stderr.String()
}

// A clean sweep exits 0 and says what it ran.
func TestCleanSweepExitsZero(t *testing.T) {
	code, out, errOut := runCLI(t, "-seed", "11", "-runs", "2")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "fdpfuzz: seed=11 ran 2 case(s), 0 failure(s)") {
		t.Fatalf("no summary line in:\n%s", out)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-runs", "1", "stray"}} {
		if code, _, errOut := runCLI(t, args...); code != 2 || errOut == "" {
			t.Errorf("%q: exit %d with stderr %q, want 2 and a diagnostic", args, code, errOut)
		}
	}
}

// A mutation run finds the planted guard bug (the seventh case of seed 1)
// and writes it as a fixture that loads and replays byte-identically.
func TestMutationRunWritesReplayableFixture(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runCLI(t, "-seed", "1", "-runs", "7", "-mutate", "-maxfailures", "1", "-out", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (failures found)\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	fixtures, err := fuzz.LoadFixtures(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != 1 {
		t.Fatalf("%d fixtures written, want 1\nstdout: %s", len(fixtures), out)
	}
	fx := fixtures[0]
	if fx.Meta.Kind != fuzz.KindSafetySequential || fx.Meta.Case.Scenario.Oracle != (fuzz.MutantSingle{}).Name() {
		t.Fatalf("fixture %s: kind %s, oracle %s", fx.Meta.Name, fx.Meta.Kind, fx.Meta.Case.Scenario.Oracle)
	}
	if div, err := trace.VerifyReplay(fx.Header, fx.Records); err != nil || div != nil {
		t.Fatalf("fixture does not replay byte-identically: div=%v err=%v", div, err)
	}
}

// A failure only the runtime shows gets no fixture: the fourth case of seed
// 2 under the planted guard bug breaks Lemma 2 on the concurrent engine while
// its sequential run stays safe, and stdout says why nothing was written.
func TestConcurrentOnlyFailureWritesNoFixture(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runCLI(t, "-seed", "2", "-runs", "4", "-mutate", "-maxfailures", "1",
		"-shrink=false", "-timeout", "1s", "-out", dir)
	if code != 1 || !strings.Contains(out, "failure 0: "+fuzz.KindSafetyConcurrent) {
		t.Fatalf("exit %d, want 1 with a %s failure\nstdout: %s\nstderr: %s", code, fuzz.KindSafetyConcurrent, out, errOut)
	}
	if !strings.Contains(out, "no fixture: the concurrent engine broke Lemma 2") {
		t.Fatalf("no refusal on stdout:\n%s", out)
	}
	if fixtures, err := fuzz.LoadFixtures(dir); err != nil || len(fixtures) != 0 {
		t.Fatalf("%d fixtures written (err %v), want none", len(fixtures), err)
	}
}

// A shrunk case is printed with everything that re-runs it, in the failure
// line's own format: seed 2's planted-bug case shrinks to a line of three
// under the fifo scheduler, which the line must name with the seed.
func TestShrunkCaseNamesItsScheduleAndSeed(t *testing.T) {
	code, out, errOut := runCLI(t, "-seed", "2", "-runs", "10", "-mutate", "-maxfailures", "1")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (failures found)\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	var failure, shrunk string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "failure 0: "):
			failure = line
		case strings.HasPrefix(line, "  shrunk ("):
			shrunk = line
		}
	}
	at := strings.Index(failure, " seed=")
	if at < 0 || shrunk == "" {
		t.Fatalf("no failure line with a seed, or no shrunk line\nstdout: %s", out)
	}
	seed := strings.Fields(failure[at:])[0]
	for _, want := range []string{" sched=fifo ", seed + " ", " pattern=", " variant=FDP ", " oracle=MUTANT-SINGLE "} {
		if !strings.Contains(shrunk, want) {
			t.Fatalf("shrunk line %q does not name %q\nstdout: %s", shrunk, want, out)
		}
	}
}
