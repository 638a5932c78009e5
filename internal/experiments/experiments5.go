package experiments

import (
	"fdp/internal/diffval"
	"fdp/internal/faults"
	"fdp/internal/metrics"
	"fdp/internal/trace"
)

// --- E16: differential cross-validation of the two execution engines ----

// E16Differential runs identical scenarios on the sequential simulator and
// the concurrent runtime and demands verdict-level agreement: the paper's
// guarantees (Lemma 2 safety, Lemma 3 liveness, the FSP variant) are
// schedule-independent, so any divergence between the engines is an
// implementation bug, not a model outcome. Scenarios cover FDP and FSP,
// corrupted initial states, and a mid-run transient fault strike.
func E16Differential(s Scale) Result {
	res := Result{
		ID:    "E16",
		Title: "Differential cross-validation: simulator vs concurrent runtime",
		Claim: "safety and liveness verdicts are schedule-independent, so both engines must agree on every seed",
		Pass:  true,
	}
	tb := metrics.NewTable("E16: verdict agreement across execution engines",
		"variant", "strike", "seeds", "agree", "converged", "violations")

	n := s.Sizes[0]
	seeds := 4 * s.Trials
	strike := faults.Wave{After: 10 * n, Config: faults.Config{FlipBeliefs: 0.5, ScrambleAnchors: 0.5, JunkMessages: 5}}
	rows := []struct {
		variant string
		strike  bool
		scn     trace.Scenario
	}{
		{"FDP", false, trace.Scenario{
			N: n, Topology: "random", LeaveFraction: 0.4, Pattern: "random",
			FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: 4,
			Variant: "FDP", Oracle: "SINGLE",
		}},
		{"FSP", false, trace.Scenario{
			N: n, Topology: "random", LeaveFraction: 0.5, Pattern: "random",
			FlipBeliefs: 0.25, JunkMessages: 3,
			Variant: "FSP",
		}},
		{"FDP", true, trace.Scenario{
			N: n, Topology: "random", LeaveFraction: 0.4, Pattern: "random",
			Variant: "FDP", Oracle: "SINGLE", Strikes: []faults.Wave{strike},
		}},
	}
	for _, row := range rows {
		vs := diffval.RunSeeds(diffval.Config{Scenario: row.scn}, seeds)
		agree, converged, violations := 0, 0, 0
		for _, v := range vs {
			if v.Agree() {
				agree++
			} else {
				res.Pass = false
			}
			if v.Sequential.Converged && v.Concurrent.Converged {
				converged++
			} else {
				res.Pass = false
			}
			if v.Sequential.SafetyViolated || v.Concurrent.SafetyViolated {
				violations++
				res.Pass = false
			}
		}
		tb.AddRow(row.variant, row.strike, seeds, agree, converged, violations)
	}
	res.Tables = append(res.Tables, tb)
	res.note("expected: agree = converged = seeds and 0 violations in every row")
	return res
}
