package fuzz

import (
	"encoding/json"
	"os"
	"testing"

	"fdp/internal/trace"
)

// fixtureCases are the shrunk counterexamples of every bug the seeded fuzz
// corpus has found, kept as plain scenarios so the journals under testdata/
// can be regenerated (FDPFUZZ_REGEN=1 go test -run TestRegenerateFixtures)
// whenever the journal format changes. Each Note documents the pre-fix
// failure the fixture guards against; the committed journal is the recorded
// sequential run of the scenario under the FIXED code, which the regression
// tests replay byte-identically.
var fixtureCases = []Meta{
	{
		Name: "dead-anchor-delegation",
		Kind: KindSafetySequential,
		Note: "Pre-fix: a leaver anchored at a process that exited kept delegating " +
			"forward(v) into the void; the drop burned the last copy of v's reference " +
			"and split the relevant component (Lemma 2 violation at step 104, EXITSAFE " +
			"+ adversarial schedule). Fixed by core.Proc.Undeliverable: a bounced " +
			"delegation recovers its reference and clears the dead anchor.",
		Case: mustCase(`{"n":8,"topology":"hypercube","leave":0.37545201418108853,"pattern":"all-but-one","variant":"FDP","oracle":"EXITSAFE","seed":2333511498762714912,"scheduler":"adversarial","flip_beliefs":1,"random_anchors":1,"junk_messages":45}`),
	},
	{
		Name: "nidec-rounds-livelock",
		Kind: KindDisagreement,
		Note: "Pre-fix: under the rounds scheduler the leaver's unpaced anchor " +
			"re-verification kept one present(u) in flight at every NIDEC query, so the " +
			"sequential engine livelocked (400k steps) while the concurrent engine " +
			"converged in 9 events. Fixed twice over: two-phase rounds (deliver, then " +
			"time out) and exponential backoff on the re-verification.",
		Case: mustCase(`{"n":2,"topology":"skip-graph","leave":0.2812076726095768,"pattern":"articulation","variant":"FDP","oracle":"NIDEC","seed":3588411843553153217,"scheduler":"rounds"}`),
	},
	{
		Name: "nidec-fifo-phase-lock",
		Kind: KindDisagreement,
		Note: "Pre-fix: the deterministic fifo schedule phase-locked the leaver's " +
			"anchor re-verification against its own oracle queries — the same NIDEC " +
			"livelock as nidec-rounds-livelock, proving the bug was not specific to one " +
			"scheduler. Fixed by the re-verification backoff in core.Proc.",
		Case: mustCase(`{"n":8,"topology":"star","leave":0.7672139728700432,"pattern":"neighborhood","variant":"FDP","oracle":"NIDEC","seed":8562746088568433553,"scheduler":"fifo","strikes":[{"after":49,"flip_beliefs":0.33092546730067074,"scramble_anchors":0.459228440719072,"junk_messages":2,"duplicate_messages":3},{"after":100,"flip_beliefs":0.0051135414358194015,"scramble_anchors":0.00613493732970204,"junk_messages":9}]}`),
	},
	{
		Name: "nidec-fifo-flood",
		Kind: KindDisagreement,
		Note: "Pre-fix: the fifo scheduler's fixed one-timeout-per-three-picks cadence " +
			"let periodic self-introductions outpace delivery on a junk-densified graph " +
			"(average degree > 2), so channels grew without bound and the leavers' NIDEC " +
			"re-verification spent ever longer in flight — an incoming implicit edge at " +
			"almost every oracle query. Sequential livelocked at the 400k-step cap with " +
			"zero exits while the concurrent engine converged in ~350 events. Fixed by " +
			"drain-pacing the fifo scheduler: deliver everything the previous phase " +
			"produced (globally oldest first) before the next timeout pass.",
		Case: mustCase(`{"n":10,"topology":"line","leave":0.21657359497358897,"pattern":"articulation","variant":"FDP","oracle":"NIDEC","seed":6880879019255016384,"scheduler":"fifo","flip_beliefs":1,"random_anchors":1,"junk_messages":61}`),
	},
	{
		Name: "anchor-reintegration-burn",
		Kind: KindSafetySequential,
		Note: "Pre-fix: a staying process reintegrated its corruption-induced anchor " +
			"by sending present(anchor) to itself and deleting its own copy — a " +
			"delegation in introduction's clothing. On delivery the present action's " +
			"silent-consumption branch (sound only for true introductions, whose " +
			"sender keeps a copy) burned what was the process's last reference and " +
			"disconnected it from its component (Lemma 2 violation at step 33, " +
			"EXITSAFE + fifo). Fixed by folding the anchor directly into n — a fusion " +
			"with no in-flight window; a leaving-claimed anchor is then shed by the " +
			"ordinary reversal in the same timeout.",
		Case: mustCase(`{"n":11,"topology":"random-regular","leave":0.7737147148330009,"pattern":"articulation","variant":"FDP","oracle":"EXITSAFE","seed":3992331589594045727,"scheduler":"fifo","flip_beliefs":0.8693134567944469,"random_anchors":0.02378163088641821}`),
	},
	{
		Name: "junk-present-bridge",
		Kind: KindSafetySequential,
		Note: "Pre-fix: a staying process receiving present(v) with v leaving and v " +
			"not in n consumed the message silently, on the reasoning that an " +
			"introduction's sender keeps its own copy. Corruption refutes that: here a " +
			"junk present injected into the initial state was the only bridge between " +
			"two components, and consuming it split them (Lemma 2 violation at step " +
			"228, FSP + fifo, no relevant leaver involved). Fixed by making the " +
			"staying receiver reverse unconditionally — held or not — matching the " +
			"forward action; the reversal flips the edge instead of dropping it, and " +
			"the exchanges it starts are bounded by the leaver's verification backoff " +
			"and FSP sleep, so hibernation is preserved.",
		Case: mustCase(`{"n":12,"topology":"skip-graph","leave":0.18430332757049506,"pattern":"block","variant":"FSP","seed":3278918353585116324,"scheduler":"fifo","flip_beliefs":1,"random_anchors":1,"junk_messages":55,"components":2,"strikes":[{"after":48,"flip_beliefs":0.4233578399306253,"scramble_anchors":0.023518757594747364,"duplicate_messages":2},{"after":141,"flip_beliefs":0.09437368834334392,"scramble_anchors":0.5041821053163268,"junk_messages":4}]}`),
	},
	{
		Name: "mutant-single-guard",
		Kind: KindSafetySequential,
		Note: "Mutation-test anchor, not a fixed bug: the deliberately broken " +
			"MUTANT-SINGLE oracle (degree <= 2) lets a bridging leaver exit and split " +
			"the component. The journal records the violating run the fuzzer found and " +
			"shrank; it must keep violating Lemma 2 on replay, or the fuzzer's ability " +
			"to detect real guard bugs has regressed.",
		Case: mustCase(`{"n":6,"topology":"line","leavers":[0,1,2,4],"leave":0.9266721880875922,"pattern":"random","variant":"FDP","oracle":"MUTANT-SINGLE","seed":2711729604092318900,"scheduler":"random"}`),
	},
}

func mustCase(s string) Case {
	var scn trace.Scenario
	if err := json.Unmarshal([]byte(s), &scn); err != nil {
		panic(err)
	}
	return Case{Scenario: scn}
}

// TestRegenerateFixtures rewrites testdata/ from fixtureCases. It only runs
// when FDPFUZZ_REGEN=1, after a deliberate journal-format change.
func TestRegenerateFixtures(t *testing.T) {
	if os.Getenv("FDPFUZZ_REGEN") != "1" {
		t.Skip("set FDPFUZZ_REGEN=1 to rewrite testdata/")
	}
	for _, meta := range fixtureCases {
		raw, _, _, err := FixtureJournal(meta.Kind, meta.Case, Options{})
		if err != nil {
			t.Fatalf("%s: %v", meta.Name, err)
		}
		if err := WriteFixture("testdata", meta, raw); err != nil {
			t.Fatalf("%s: %v", meta.Name, err)
		}
		t.Logf("wrote testdata/%s.jsonl", meta.Name)
	}
}
