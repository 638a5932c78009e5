package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fdp/internal/churn"
	"fdp/internal/trace"
)

// testOptions keeps per-case budgets small enough for CI while matching the
// settings the committed fixtures were recorded with.
func testOptions() Options {
	return Options{Timeout: 5 * time.Second}
}

// Every committed fixture must replay byte-identically: the journal verifies
// against itself, and re-recording the fixture's scenario under the current
// code reproduces the committed bytes exactly.
func TestFixturesReplayByteIdentically(t *testing.T) {
	fixtures, err := LoadFixtures("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures committed under testdata/")
	}
	for _, fx := range fixtures {
		t.Run(fx.Meta.Name, func(t *testing.T) { checkFixture(t, fx) })
	}
}

// checkFixture holds one fixture to the byte-identical replay contract.
func checkFixture(t *testing.T, fx Fixture) {
	t.Helper()
	if div, err := trace.VerifyReplay(fx.Header, fx.Records); err != nil || div != nil {
		t.Fatalf("journal does not replay byte-identically: div=%v err=%v", div, err)
	}
	raw, _, _, err := FixtureJournal(fx.Meta.Kind, fx.Meta.Case, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, fx.Raw) {
		t.Fatalf("re-recording the fixture scenario produced different bytes (%d vs %d)", len(raw), len(fx.Raw))
	}
}

// An open safety bug written the way fdpfuzz -out writes it — its journal
// cut to the shortest violating prefix — passes the check every committed
// fixture passes. The always-granting oracle TRUE lets a bridging leaver
// exit on a line, so each of these cases violates Lemma 2. The sequential
// violation decides the kind, so Execute classifies each case without
// waiting out the concurrent run's timeout.
func TestOpenSafetyBugFixtureReplays(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	for seed := int64(1); seed <= 3; seed++ {
		c := Case{Scenario: trace.Scenario{
			N: 10, Topology: "line", LeaveFraction: 0.5, Pattern: "random",
			Variant: "FDP", Oracle: "TRUE", Seed: seed, Scheduler: "random",
		}}
		start := time.Now()
		f := Execute(c, opts)
		if took := time.Since(start); took > opts.Timeout/10 {
			t.Fatalf("seed %d: Execute took %v against a %v concurrent timeout", seed, took, opts.Timeout)
		}
		if f == nil || f.Kind != KindSafetySequential {
			t.Fatalf("seed %d: failure %v, want %s", seed, f, KindSafetySequential)
		}
		raw, _, dropped, err := FixtureJournal(f.Kind, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dropped == 0 {
			t.Fatalf("seed %d: the violating journal was not cut", seed)
		}
		meta := Meta{Name: fmt.Sprintf("true-line-%d", seed), Kind: f.Kind, Note: f.Note, Case: c}
		if err := WriteFixture(dir, meta, raw); err != nil {
			t.Fatal(err)
		}
	}
	fixtures, err := LoadFixtures(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != 3 {
		t.Fatalf("loaded %d fixtures, want 3", len(fixtures))
	}
	for _, fx := range fixtures {
		t.Run(fx.Meta.Name, func(t *testing.T) { checkFixture(t, fx) })
	}
}

// Unshown refuses a fixture exactly where the sequential journal cannot show
// the failure: a concurrent safety violation, or a disagreement whose
// sequential side converged (nidec-rounds-livelock's case does, now that the
// bug is fixed), but not a disagreement whose sequential side is stuck.
func TestUnshownRefusesRuntimeSideFailures(t *testing.T) {
	var fixed Case
	for _, m := range fixtureCases {
		if m.Name == "nidec-rounds-livelock" {
			fixed = m.Case
		}
	}
	stuck := livelockCase(23) // never granted: the sequential run cannot converge
	opts := Options{MaxSteps: 20000}
	for _, tc := range []struct {
		kind    string
		c       Case
		refused bool
	}{
		{KindSafetyConcurrent, fixed, true},
		{KindDisagreement, fixed, true},
		{KindDisagreement, stuck, false},
		{KindSafetySequential, fixed, false},
		{KindNoConvergence, stuck, false},
	} {
		if why := Unshown(tc.kind, tc.c, opts); (why != "") != tc.refused {
			t.Errorf("%s on %s: Unshown = %q, want refused %v", tc.kind, tc.c.Scenario.Oracle, why, tc.refused)
		}
	}
}

// The fixtures for fixed bugs must pass on both engines now; the mutation
// anchor must keep failing, or the fuzzer has lost its ability to detect a
// real guard bug.
func TestFixtureCasesClassify(t *testing.T) {
	fixtures, err := LoadFixtures("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		t.Run(fx.Meta.Name, func(t *testing.T) {
			f := Execute(fx.Meta.Case, testOptions())
			mutant := fx.Meta.Case.Scenario.Oracle == (MutantSingle{}).Name()
			switch {
			case mutant && f == nil:
				t.Fatal("the broken MUTANT-SINGLE oracle no longer produces a failure")
			case mutant && f.Kind != KindSafetySequential:
				t.Fatalf("mutation anchor classified %s, want %s", f.Kind, KindSafetySequential)
			case !mutant && f != nil:
				t.Fatalf("fixed bug regressed: %s", f)
			}
		})
	}
}

// The mutation-test harness end to end: a fuzzing run over the seeded corpus
// with the broken oracle injected must find a failure deterministically,
// shrink it to a no-larger case that still fails, and record a journal whose
// replay is byte-identical and still violates Lemma 2.
func TestMutationHarness(t *testing.T) {
	opts := testOptions()
	opts.Seed = 1
	opts.Runs = 10
	opts.Mutate = true
	opts.MaxFailures = 1
	res := Run(opts)
	if len(res.Failures) == 0 {
		t.Fatalf("mutation run found no failures in %d cases", res.Ran)
	}
	f := res.Failures[0]
	if f.Kind != KindSafetySequential {
		t.Fatalf("mutant failure classified %s, want %s", f.Kind, KindSafetySequential)
	}

	shrunk, _ := Shrink(f, opts, 0)
	if shrunk.Scenario.N > f.Case.Scenario.N {
		t.Fatalf("shrinking grew the case: n=%d from n=%d", shrunk.Scenario.N, f.Case.Scenario.N)
	}
	if again := Execute(shrunk, opts); again == nil {
		t.Fatal("shrunk case no longer fails")
	}

	_, hdr, recs, err := journal(shrunk, opts)
	if err != nil {
		t.Fatal(err)
	}
	if div, err := trace.VerifyReplay(hdr, recs); err != nil || div != nil {
		t.Fatalf("shrunk journal does not replay byte-identically: div=%v err=%v", div, err)
	}
	// ShrinkJournal returns the minimal violating prefix; ok only reports
	// whether truncation shortened anything — a journal that already ends at
	// the violating step is returned unchanged.
	short, _ := ShrinkJournal(hdr, recs)
	if len(short) > len(recs) {
		t.Fatalf("journal shrink grew the journal: %d from %d", len(short), len(recs))
	}
	scn, _, err := trace.ReplayWorld(hdr, short)
	if err != nil {
		t.Fatal(err)
	}
	if scn.World.RelevantComponentsIntact() {
		t.Fatal("truncated journal no longer violates Lemma 2")
	}
}

// A short fresh-fuzz smoke pass over the seeded corpus: the first cases of
// seed 1 must all pass on both engines.
func TestFuzzSmoke(t *testing.T) {
	opts := testOptions()
	opts.Seed = 1
	opts.Runs = 6
	res := Run(opts)
	if res.Ran != 6 {
		t.Fatalf("ran %d cases, want 6", res.Ran)
	}
	for _, f := range res.Failures {
		t.Errorf("unexpected failure: %s", f)
	}
}

// Generate's contract: every case it draws is buildable.
func TestGenerateAlwaysBuildable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		c := Generate(rng)
		cfg, err := c.Scenario.ChurnConfig()
		if err != nil {
			t.Fatalf("case %d: %v (%+v)", i, err, c.Scenario)
		}
		if _, err := churn.TryBuild(cfg); err != nil {
			t.Fatalf("case %d: %v (%+v)", i, err, c.Scenario)
		}
	}
}
