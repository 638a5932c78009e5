package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCheck(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestDefaultsExploreTheE14Instance pins the binary's default report — the
// line of 3 with the middle node leaving — to the numbers the hand-laid
// builder produced before fdpcheck became a caller of fdp.CheckSchedules.
func TestDefaultsExploreTheE14Instance(t *testing.T) {
	code, out, errs := runCheck()
	want := "topology=line n=3 leavers=1 oracle=single variant=fdp\n" +
		"states explored:     6708\n" +
		"depth reached:       12\n" +
		"legitimate states:   138\n" +
		"frontier (undecided): 2342\n" +
		"result: SAFE on every explored schedule\n"
	if code != 0 || out != want || errs != "" {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s\nwant stdout:\n%s", code, out, errs, want)
	}
}

// TestFourProcessesKeepTheirCounts pins -n 4 (a line of four, one leaver)
// the same way: the explorer's keys and order must not move its counts.
func TestFourProcessesKeepTheirCounts(t *testing.T) {
	code, out, errs := runCheck("-n", "4")
	want := "topology=line n=4 leavers=1 oracle=single variant=fdp\n" +
		"states explored:     42408\n" +
		"depth reached:       12\n" +
		"legitimate states:   428\n" +
		"frontier (undecided): 17969\n" +
		"result: SAFE on every explored schedule\n"
	if code != 0 || out != want || errs != "" {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s\nwant stdout:\n%s", code, out, errs, want)
	}
}

func TestUnsafeOracleExitsOneWithTheSchedule(t *testing.T) {
	code, out, _ := runCheck("-oracle", "unsafe", "-depth", "10")
	for _, want := range []string{
		"states explored:     8\n", "legitimate states:   0\n", "result: VIOLATION FOUND\n",
		"relevant processes disconnected after 2 actions: p2.timeout p2.timeout\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
}

// TestUnknownNamesExitTwo: at the parent "-topology rng" printed
// topology=rng and explored a line, and "-variant fps" explored FDP.
func TestUnknownNamesExitTwo(t *testing.T) {
	for flagName, known := range map[string]string{
		"topology": "line, directed-line, ring,",
		"oracle":   "single, nidec, exitsafe, timeout, unsafe",
		"variant":  "fdp, fsp",
	} {
		code, out, errs := runCheck("-"+flagName, "rng")
		if code != 2 || out != "" {
			t.Errorf("-%s rng: exit %d, stdout %q", flagName, code, out)
		}
		if !strings.Contains(errs, "-"+flagName) || !strings.Contains(errs, known) {
			t.Errorf("-%s rng: stderr names neither the flag nor the known values:\n%s", flagName, errs)
		}
	}
	// Names the table knows but the checker cannot honour are bad configs.
	for _, args := range [][]string{{"-oracle", "timeout"}, {"-leavers", "3"}, {"-topology", "hypercube"}} {
		if code, _, errs := runCheck(args...); code != 2 || !strings.Contains(errs, "invalid configuration") {
			t.Errorf("%v: exit %d, stderr %q", args, code, errs)
		}
	}
}
