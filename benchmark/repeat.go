package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// repeatSets is the repeatability check the acceptance procedure runs: two
// sets of k fresh-process runs per workload, every run on another seed, and
// per workload x end-to-end metric the median, quartiles and spread
// (interquartile distance over median) of each set plus a verdict:
//
//	unresolved  a set's spread exceeds the metric's bound
//	regressed   the second set's median is worse than the first's by more
//	            than the bound (same code: the benchmark does not repeat)
//	ok          otherwise; "steady" is added when both spreads stay below a
//	            third of the bound, the margin the benchmark aims for
//
// It reports whether every verdict was ok and no operation failed.
func repeatSets(out io.Writer, selected []workload, k int, seed int64, seconds float64, smoke bool) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	if seconds <= 0 {
		seconds = runSeconds
	}
	allOK := true
	for _, wl := range selected {
		var sets [2]map[string][]float64
		failed := 0
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < k; i++ {
				// Trial t of a run uses seed+t, so runs are spaced far apart.
				runSeed := seed + int64(1000*(s*k+i))
				line, err := childRun(exe, wl.name, runSeed, seconds, smoke)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", wl.name, runSeed, err)
				}
				if line.Correct {
					failed += line.Failed
				} else {
					failed += line.Attempted // a failed check fails the whole run
				}
				for name, v := range line.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
				fmt.Fprintf(out, "# %s set %d run %d seed %d done\n", wl.name, s+1, i+1, runSeed)
			}
		}
		fmt.Fprintf(out, "\nworkload %s: 2 sets x %d runs, %d failed operations\n", wl.name, k, failed)
		fmt.Fprintf(out, "  %-14s %12s %12s %12s %8s | %12s %8s | %6s %7s  %s\n", "metric",
			"median A", "q1 A", "q3 A", "spread", "median B", "spread", "bound", "B vs A", "verdict")
		if failed > 0 {
			allOK = false
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			medA, medB := median(a), median(b)
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(b)
			spreadA, spreadB := ratio(q3a-q1a, medA), ratio(q3b-q1b, medB)
			worse := ratio(medB-medA, medA)
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(spreadA, spreadB) > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "regressed"
			case max(spreadA, spreadB) < m.bound/3:
				verdict = "ok steady"
			}
			if verdict == "unresolved" || verdict == "regressed" {
				allOK = false
			}
			fmt.Fprintf(out, "  %-14s %12.6g %12.6g %12.6g %7.1f%% | %12.6g %7.1f%% | %5.0f%% %+6.1f%%  %s\n",
				m.name, medA, q1a, q3a, spreadA*100, medB, spreadB*100, m.bound*100, worse*100, verdict)
		}
	}
	return allOK, nil
}

// childRun runs one workload in a fresh process, exactly as the driver
// does, and parses the result line. A child that exits non-zero after a
// failed check still printed one: its run counts as failed operations, and
// only a child that printed no result line aborts the series.
func childRun(exe, workload string, seed int64, seconds float64, smoke bool) (resultLine, error) {
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return resultLine{}, err
	}
	out := bytes.TrimSpace(stdout)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var line resultLine
	if jsonErr := json.Unmarshal(last, &line); jsonErr != nil {
		if err != nil {
			return line, err
		}
		return line, fmt.Errorf("result line: %w", jsonErr)
	}
	return line, nil
}
