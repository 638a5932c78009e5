package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"fdp/internal/oracle"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// layersOf names the layer prefixes each workload must report in its traced
// pass; everything else it bypasses.
var layersOf = map[string][]string{
	"rt_churn":       {"churn.", "diffval.", "oracle.", "parallel.", "bench."},
	"rt_sparse":      {"churn.", "diffval.", "oracle.", "parallel.", "bench."},
	"rt_observed":    {"churn.", "diffval.", "oracle.", "parallel.", "obs.", "trace.", "bench."},
	"sim_churn":      {"churn.", "sim.", "oracle.", "bench."},
	"overlay_lookup": {"framework.", "app.", "sim.", "oracle.", "bench."},
}

// TestSmokeEmitsEveryMetric runs both passes of every workload at smoke
// sizes, through the code path -smoke takes: every check passes, every
// end-to-end metric and every per-layer metric of the workload's layers is
// measured and finite, and the result lines carry exactly the named metrics.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rep, err := runWorkload(io.Discard, &wl, 1, 0, true, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.problems) > 0 || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", rep.attempted, rep.failed, rep.problems)
			}
			for _, m := range endToEnd {
				if v, ok := rep.endToEnd[m.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v, want a positive finite number", m.name, v)
				}
			}
			for _, m := range perLayer {
				mine := false
				for _, prefix := range layersOf[wl.name] {
					mine = mine || strings.HasPrefix(m.name, prefix)
				}
				v, measured := rep.perLayer[m.name]
				switch {
				case mine && !measured:
					t.Errorf("per-layer %s not measured", m.name)
				case !mine && measured:
					t.Errorf("per-layer %s measured on a workload that bypasses the layer", m.name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("per-layer %s = %v", m.name, v)
				}
			}
			for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
				line := rep.line(traced)
				if !line.Correct || len(line.Metrics) != len(defs) {
					t.Errorf("result line (trace %v): correct %v, %d metrics, want %d",
						traced, line.Correct, len(line.Metrics), len(defs))
				}
			}
			raw, err := os.ReadFile(dir + "/trace-" + wl.name + ".json")
			var spans struct{ TraceEvents []map[string]any }
			if err != nil || json.Unmarshal(raw, &spans) != nil || len(spans.TraceEvents) < 10 {
				t.Errorf("span file: %v, %d events", err, len(spans.TraceEvents))
			}
		})
	}
}

// TestSequentialCountsRepeat: the sequential workloads see only the
// generated scenario, so their step, message and exit counts repeat exactly
// per seed.
func TestSequentialCountsRepeat(t *testing.T) {
	for _, name := range []string{"sim_churn", "overlay_lookup"} {
		wl := workloadByName(name)
		var runs [2][]trial
		for i := range runs {
			runs[i] = runPass(wl, wl.smoke, 7, 0, false, true).trials
		}
		for i, a := range runs[0] {
			b := runs[1][i]
			if a.events != b.events || a.msgs != b.msgs || len(a.exits) != len(b.exits) || a.ops != b.ops {
				t.Errorf("%s trial %d: events %d/%d msgs %d/%d exits %d/%d ops %d/%d", name, i,
					a.events, b.events, a.msgs, b.msgs, len(a.exits), len(b.exits), a.ops, b.ops)
			}
		}
	}
}

// spyOracle is SINGLE that counts which entry point judged.
type spyOracle struct {
	oracle.Single
	evaluated, judged int
}

func (o *spyOracle) Evaluate(w *sim.World, u ref.Ref) bool {
	o.evaluated++
	return o.Single.Evaluate(w, u)
}

func (o *spyOracle) JudgeDegree(deg int) bool {
	o.judged++
	return o.Single.JudgeDegree(deg)
}

// TestTracedOracleKeepsDegreeFastPath: wrapped in the traced pass's timing
// oracle, the runtime must still judge by degree — Evaluate is never
// reached from an rt_* run.
func TestTracedOracleKeepsDegreeFastPath(t *testing.T) {
	wl := workloadByName("rt_churn")
	b := newBench(true, true)
	spy := &spyOracle{}
	b.oracle = spy
	if tr := wl.run(b, wl.smoke, 3); tr.problem != "" || tr.failed > 0 {
		t.Fatalf("trial failed: %q, %d unfinished", tr.problem, tr.failed)
	}
	if spy.evaluated != 0 || spy.judged == 0 {
		t.Fatalf("Evaluate reached %d times, JudgeDegree %d: the wrapper knocked the runtime off its degree fast path",
			spy.evaluated, spy.judged)
	}
}

// TestChecksBite: with the unsafe oracle every leaver exits at once and the
// overlay falls apart; the trial must be reported as a safety failure and
// all its operations as failed.
func TestChecksBite(t *testing.T) {
	wl := workloadByName("rt_churn")
	b := newBench(false, true)
	b.oracle = oracle.Always(true)
	p := &pass{b: b}
	for seed := int64(1); seed <= 3; seed++ {
		p.trials = append(p.trials, wl.run(b, wl.smoke, seed))
	}
	attempted, failed, problems := p.tally()
	if len(problems) == 0 || !strings.Contains(problems[0], "safety") || failed == 0 {
		t.Fatalf("unsafe oracle went unnoticed: %d of %d failed, problems %v", failed, attempted, problems)
	}
	if (report{attempted: attempted, failed: failed, problems: problems}).line(false).Correct {
		t.Fatal("result line says correct")
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and spec.go from
// drifting apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d in BENCHMARK.json, %d in spec.go", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v differs from spec.go", i, w)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: %+v differs from spec.go %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of [1 2] = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}
