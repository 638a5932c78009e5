package experiments

import (
	"strings"
	"testing"
)

// tiny returns a minimal scale for test speed.
func tiny() Scale { return Scale{Sizes: []int{8, 12}, Trials: 2, MaxSteps: 2_000_000} }

func checkResult(t *testing.T, r Result) {
	t.Helper()
	if !r.Pass {
		var b strings.Builder
		for _, tb := range r.Tables {
			b.WriteString(tb.String())
		}
		t.Fatalf("%s (%s) did not pass:\n%s", r.ID, r.Title, b.String())
	}
	if len(r.Tables) == 0 {
		t.Fatalf("%s produced no tables", r.ID)
	}
	for _, tb := range r.Tables {
		if tb.NumRows() == 0 {
			t.Fatalf("%s produced an empty table", r.ID)
		}
	}
}

func TestE1(t *testing.T)  { checkResult(t, E1PrimitivesSafety(tiny())) }
func TestE2(t *testing.T)  { checkResult(t, E2Universality(tiny())) }
func TestE3(t *testing.T)  { checkResult(t, E3Necessity()) }
func TestE4(t *testing.T)  { checkResult(t, E4Safety(tiny())) }
func TestE5(t *testing.T)  { checkResult(t, E5Convergence(tiny())) }
func TestE6(t *testing.T)  { checkResult(t, E6Potential(tiny())) }
func TestE7(t *testing.T)  { checkResult(t, E7Embedding(tiny())) }
func TestE8(t *testing.T)  { checkResult(t, E8FSP(tiny())) }
func TestE9(t *testing.T)  { checkResult(t, E9Baseline(tiny())) }
func TestE10(t *testing.T) { checkResult(t, E10Oracles(tiny())) }

func TestE12(t *testing.T) { checkResult(t, E12Routing(tiny())) }
func TestE13(t *testing.T) { checkResult(t, E13Faults(tiny())) }
func TestE15(t *testing.T) { checkResult(t, E15SkipHops(tiny())) }

// TestE14 pins the table EXPERIMENTS.md records: the instance is tiny and
// the exploration exhaustive, so the counts are exact, not sampled.
func TestE14(t *testing.T) {
	r := E14ModelCheck()
	checkResult(t, r)
	got := r.Tables[0].CSV()
	for _, row := range []string{"SINGLE,12,6708,false,138\n", "TRUE (unsafe),10,8,true,0\n"} {
		if !strings.Contains(got, row) {
			t.Errorf("E14 table lacks row %q:\n%s", row, got)
		}
	}
}

func TestE11(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel runtime experiment")
	}
	checkResult(t, E11Parallel(Scale{Sizes: []int{8}, Trials: 1, MaxSteps: 1_000_000}))
}

func TestE16(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel runtime experiment")
	}
	checkResult(t, E16Differential(Scale{Sizes: []int{8}, Trials: 1, MaxSteps: 1_000_000}))
}

func TestE6SeriesNonIncreasing(t *testing.T) {
	r := E6Potential(tiny())
	if len(r.Series) == 0 {
		t.Fatal("E6 must produce the Φ decay series")
	}
	if !r.Series[0].NonIncreasing() {
		t.Fatal("Φ decay series must be non-increasing")
	}
}

func TestScalesSane(t *testing.T) {
	for _, s := range []Scale{Quick(), Full()} {
		if len(s.Sizes) == 0 || s.Trials < 1 || s.MaxSteps < 1 {
			t.Fatal("scale misconfigured")
		}
	}
}
