package node

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fdp/internal/obs"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
	"fdp/internal/transport"
)

func testScenario(n int, seed int64) trace.Scenario {
	return trace.Scenario{N: n, Topology: "line", LeaveFraction: 0.4,
		Pattern: "random", Variant: "FDP", Oracle: "SINGLE", Seed: seed}
}

// meshConfigs returns the configs of an nn-node run of scn, each node
// journaling into its buffer.
func meshConfigs(scn trace.Scenario, nn int) ([]Config, []*bytes.Buffer) {
	cfgs := make([]Config, nn)
	bufs := make([]*bytes.Buffer, nn)
	for i := range cfgs {
		bufs[i] = &bytes.Buffer{}
		cfgs[i] = Config{ID: i, Nodes: nn, Scenario: scn, Journal: bufs[i],
			MaxWall: 30 * time.Second, Linger: time.Millisecond, RoundEvery: time.Millisecond}
	}
	return cfgs, bufs
}

// runMesh runs a full multi-node churn on the seeded loopback and returns
// everything the merge step consumes.
func runMesh(t *testing.T, scn trace.Scenario, nn int,
	chaos func(*transport.Loopback)) ([]Result, []trace.Header, [][]trace.Record, []Summary) {
	t.Helper()
	cfgs, bufs := meshConfigs(scn, nn)
	results, err := RunLoopback(cfgs, chaos)
	if err != nil {
		t.Fatal(err)
	}
	hdrs := make([]trace.Header, nn)
	parts := make([][]trace.Record, nn)
	sums := make([]Summary, nn)
	for i := 0; i < nn; i++ {
		h, recs, err := trace.ReadJournal(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("journal %d: %v", i, err)
		}
		hdrs[i], parts[i], sums[i] = h, recs, results[i].Summary
	}
	return results, hdrs, parts, sums
}

func TestThreeNodeLoopbackMatchesSequentialVerdict(t *testing.T) {
	scn := testScenario(12, 42)

	// The same scenario must converge on the sequential engine — the
	// multi-node run is checked against the same verdict, not a weaker one.
	seq, err := scn.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(seq.World, sim.NewRandomScheduler(scn.Seed, 0), sim.RunOptions{
		Variant: sim.FDP, MaxSteps: 200000, CheckSafety: true})
	if !res.Converged || res.SafetyViolation != nil {
		t.Fatalf("sequential reference run did not converge: %+v", res)
	}

	results, hdrs, parts, sums := runMesh(t, scn, 3, nil)
	v, err := Verify(hdrs, parts, sums)
	if err != nil {
		t.Fatal(err)
	}
	if v.Joined.Sends == 0 || v.Joined.Delivers == 0 {
		t.Fatal("no cross-checked traffic in the joined journal")
	}
	for i, r := range results {
		if !r.Converged {
			t.Errorf("node %d did not converge: %+v", i, r.Summary)
		}
	}
	if !v.Converged {
		t.Fatalf("merged verdict failed:\n%v", v.Problems)
	}
}

func TestThreeNodeLoopbackSurvivesChaos(t *testing.T) {
	scn := testScenario(10, 7)
	drops, dups := 0, 0
	results, hdrs, parts, sums := runMesh(t, scn, 3, chaosHooks(&drops, &dups))
	for i, r := range results {
		if !r.Converged {
			t.Errorf("node %d did not converge under chaos: %+v", i, r.Summary)
		}
	}
	v, err := Verify(hdrs, parts, sums)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Converged {
		t.Fatalf("merged verdict failed under chaos:\n%v", v.Problems)
	}
	if drops == 0 || dups == 0 {
		t.Fatalf("chaos hooks fired %d drops and %d duplicates, want both", drops, dups)
	}
	// Duplicated frames are absorbed by the node's exactly-once watermark
	// before they reach an engine, so the joined journal sees each delivery
	// once.
	if v.Joined.Duplicates != 0 {
		t.Errorf("joined journal counted %d duplicate deliveries; dedupe leaked", v.Joined.Duplicates)
	}
}

func TestThreeNodeTCPConverges(t *testing.T) {
	scn := testScenario(9, 11)
	const nn = 3
	ns := make([]*Node, nn)
	bufs := make([]*bytes.Buffer, nn)
	trs := make([]*transport.TCP, nn)
	// Under the race detector the wall budget is a coverage window, not a
	// convergence deadline: a grant needs an undisturbed round, and the
	// detector's slowdown on a shared core stretches round trips until
	// such windows all but vanish.
	maxWall, roundEvery := 30*time.Second, 5*time.Millisecond
	if raceEnabled {
		maxWall, roundEvery = 15*time.Second, 10*time.Millisecond
	}
	for i := 0; i < nn; i++ {
		bufs[i] = &bytes.Buffer{}
		n, err := New(Config{ID: i, Nodes: nn, Scenario: scn, Journal: bufs[i],
			MaxWall: maxWall, Linger: 200 * time.Millisecond, RoundEvery: roundEvery})
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = n
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self: transport.NodeID(i), Listen: "127.0.0.1:0",
			Peers: make(map[transport.NodeID]string), Handler: n})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	// Peer addresses exist only after all listeners are up; fill them in
	// before any node starts sending.
	for i := 0; i < nn; i++ {
		for j := 0; j < nn; j++ {
			if i != j {
				trs[i].SetPeer(transport.NodeID(j), trs[j].Addr())
			}
		}
	}
	results := make([]Result, nn)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = ns[i].Run(trs[i], stop)
		}(i)
	}
	wg.Wait()
	for _, tr := range trs {
		tr.Close()
	}

	hdrs := make([]trace.Header, nn)
	parts := make([][]trace.Record, nn)
	sums := make([]Summary, nn)
	for i := 0; i < nn; i++ {
		h, recs, err := trace.ReadJournal(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("journal %d: %v", i, err)
		}
		hdrs[i], parts[i], sums[i] = h, recs, results[i].Summary
	}
	v, err := Verify(hdrs, parts, sums)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		// TCP read/write/redial paths got their race coverage above;
		// convergence is asserted without the detector.
		if v.Joined.Duplicates != 0 {
			t.Errorf("joined journal counted %d duplicate deliveries", v.Joined.Duplicates)
		}
		t.Skip("liveness asserted without -race only; safety checks passed")
	}
	for i, r := range results {
		if !r.Converged {
			t.Errorf("node %d did not converge over TCP: %+v", i, r.Summary)
		}
	}
	if !v.Converged {
		t.Fatalf("merged TCP verdict failed:\n%v", v.Problems)
	}
}

func TestInterruptedRunFlushesReadableJournal(t *testing.T) {
	scn := testScenario(14, 3)
	// One-node run (everything local) interrupted immediately: the journal
	// must still be a parseable prefix and the summary must say interrupted.
	buf := &bytes.Buffer{}
	n, err := New(Config{ID: 0, Nodes: 1, Scenario: scn, Journal: buf,
		MaxWall: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	mesh := transport.NewLoopback(scn.Seed)
	port := mesh.Attach(n)
	stop := make(chan struct{})
	close(stop)
	res := n.Run(port, stop)
	if !res.Summary.Interrupted || res.Converged {
		t.Fatalf("interrupted run misreported: %+v", res)
	}
	if _, _, err := trace.ReadJournal(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("interrupted journal unreadable: %v", err)
	}
}

func TestVerifyFlagsMissingExit(t *testing.T) {
	scn := testScenario(12, 42)
	_, hdrs, parts, sums := runMesh(t, scn, 3, nil)
	// Pretend one exited leaver is still live and its exit never happened.
	for si := range sums {
		if len(sums[si].Exited) == 0 {
			continue
		}
		u := sums[si].Exited[0]
		sums[si].Exited = sums[si].Exited[1:]
		sums[si].Live = append(sums[si].Live, ProcState{Index: u, Mode: "leaving"})
		v, err := Verify(hdrs, parts, sums)
		if err != nil {
			t.Fatal(err)
		}
		if v.Converged {
			t.Fatalf("verdict accepted a run where p%d never exited", u+1)
		}
		found := false
		for _, p := range v.Problems {
			if p == fmt.Sprintf("leaver p%d did not exit", u+1) {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing-exit problem not reported: %v", v.Problems)
		}
		return
	}
	t.Fatal("no node reported an exited leaver")
}

// chaosHooks drops every 13th data frame and duplicates every 7th, five of
// each at most, counting what fired.
func chaosHooks(drops, dups *int) func(*transport.Loopback) {
	return func(mesh *transport.Loopback) {
		n := 0
		mesh.Drop = func(_, _ transport.NodeID, _ sim.Message) bool {
			n++
			if n%13 == 0 && *drops < 5 {
				*drops++
				return true
			}
			return false
		}
		mesh.Duplicate = func(_, _ transport.NodeID, _ sim.Message) bool {
			if n%7 == 0 && *dups < 5 {
				*dups++
				return true
			}
			return false
		}
	}
}

// TestMeshIsDeterministic: the seeded mesh replays. Two runs of one
// scenario, with the chaos hooks on or off, give byte-identical per-node
// journals and a byte-identical joined journal.
func TestMeshIsDeterministic(t *testing.T) {
	run := func(scn trace.Scenario, chaos bool) [][]byte {
		cfgs, bufs := meshConfigs(scn, 3)
		var hooks func(*transport.Loopback)
		if chaos {
			var drops, dups int
			hooks = chaosHooks(&drops, &dups)
		}
		if _, err := RunLoopback(cfgs, hooks); err != nil {
			t.Fatal(err)
		}
		hdrs := make([]trace.Header, len(bufs))
		parts := make([][]trace.Record, len(bufs))
		out := make([][]byte, 0, len(bufs)+1)
		for i, b := range bufs {
			var err error
			if hdrs[i], parts[i], err = trace.ReadJournal(bytes.NewReader(b.Bytes())); err != nil {
				t.Fatalf("journal %d: %v", i, err)
			}
			out = append(out, b.Bytes())
		}
		j, err := trace.Join(hdrs, parts)
		if err != nil {
			t.Fatal(err)
		}
		var joined bytes.Buffer
		if err := trace.WriteJournal(&joined, hdrs[0], j.Records); err != nil {
			t.Fatal(err)
		}
		return append(out, joined.Bytes())
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, chaos := range []bool{false, true} {
			scn := testScenario(12, seed)
			a, b := run(scn, chaos), run(scn, chaos)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					what := fmt.Sprintf("node %d journals", i)
					if i == len(a)-1 {
						what = "joined journals"
					}
					t.Fatalf("seed %d chaos=%v: %s differ between two runs", seed, chaos, what)
				}
			}
		}
	}
}

// TestMeshOutlastsRoundsLongerThanTheirDeadline is the regression test of
// the livelock once reported at small RoundEvery. An open round is first
// declared lost after 20 × RoundEvery; at 10µs that is 200µs, less than a
// round trip on the loopback (a frame takes up to 250µs, a busy Step a 250µs
// tick). With a fixed deadline every round restarted before its answers
// arrived, nothing was granted, and the §16 watchdog judged every node that
// owns a leaver livelocked. Each lost round now doubles the deadline, so the
// same seed converges at 10µs with no stall verdict, as it does at 100µs.
func TestMeshOutlastsRoundsLongerThanTheirDeadline(t *testing.T) {
	for _, roundEvery := range []time.Duration{10 * time.Microsecond, 100 * time.Microsecond} {
		cfgs, _ := meshConfigs(testScenario(12, 1), 3)
		for i := range cfgs {
			cfgs[i].RoundEvery, cfgs[i].MaxWall, cfgs[i].StallWindow = roundEvery, 100*time.Millisecond, 20*time.Millisecond
		}
		results, err := RunLoopback(cfgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if !r.Converged || r.Summary.Stall != "" {
				t.Errorf("node %d at %v rounds: converged=%v stall=%q", i, roundEvery, r.Converged, r.Summary.Stall)
			}
		}
	}
}

// TestVerifyReportsLeaversInIndexOrder: "unaccounted for" and "did not
// exit" problems come out in leaver index order, the same on every call.
func TestVerifyReportsLeaversInIndexOrder(t *testing.T) {
	scn := testScenario(12, 42)
	global, err := scn.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	var leavers []int
	for _, r := range global.LeavingNodes() {
		leavers = append(leavers, ref.Index(r))
	}
	slices.Sort(leavers)
	if len(leavers) < 2 {
		t.Fatalf("scenario has %d leavers, want at least 2", len(leavers))
	}
	// Two nodes that report nothing about two leavers: neither live nor
	// exited.
	hdrs := make([]trace.Header, 2)
	sums := make([]Summary, 2)
	for i := range sums {
		hdrs[i] = trace.Header{Version: trace.Version, Engine: trace.EngineNode, Scenario: scn, Node: i, Nodes: 2}
		sums[i] = Summary{Node: i, Nodes: 2}
	}
	for _, r := range global.Nodes {
		i := ref.Index(r)
		if i != leavers[0] && i != leavers[1] {
			sums[i%2].Live = append(sums[i%2].Live, ProcState{Index: i, Mode: "staying"})
		}
	}
	want := []string{
		fmt.Sprintf("leaver p%d unaccounted for (neither live nor exited)", leavers[0]+1),
		fmt.Sprintf("leaver p%d unaccounted for (neither live nor exited)", leavers[1]+1),
	}
	for _, i := range leavers {
		want = append(want, fmt.Sprintf("leaver p%d did not exit", i+1))
	}
	for call := 0; call < 20; call++ {
		v, err := Verify(hdrs, make([][]trace.Record, 2), sums)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range v.Problems {
			if strings.HasPrefix(p, "leaver ") {
				got = append(got, p)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: leaver problems\n%q\nwant\n%q", call, got, want)
		}
	}
}

// TestMeshStallReportsLivelock: after the first oracle round no other is
// due within the run, so nothing more is granted while the owned leavers
// keep spinning, and each node's watch judges its first window with leavers
// left a livelock. OnStall receives that one report, framed as the node's
// journal fragment, and the summary records it.
func TestMeshStallReportsLivelock(t *testing.T) {
	cfgs, _ := meshConfigs(testScenario(12, 42), 3)
	reports := make([][]*obs.StallReport, len(cfgs))
	for i := range cfgs {
		i := i
		cfgs[i].RoundEvery, cfgs[i].MaxWall, cfgs[i].StallWindow = time.Hour, 100*time.Millisecond, 10*time.Millisecond
		cfgs[i].OnStall = func(rep *obs.StallReport) { reports[i] = append(reports[i], rep) }
	}
	results, err := RunLoopback(cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(reports[i]) != 1 {
			t.Fatalf("node %d: OnStall called %d times, want once", i, len(reports[i]))
		}
		rep := reports[i][0]
		if rep.Verdict.Kind != obs.StallLivelock {
			t.Errorf("node %d: stall %s, want livelock", i, rep.Verdict)
		}
		if rep.Header.Engine != trace.EngineNode || rep.Header.Node != i {
			t.Errorf("node %d: report header %+v", i, rep.Header)
		}
		if len(rep.Flight) == 0 {
			t.Errorf("node %d: report carries no flight records", i)
		}
		if len(r.Summary.Leavers) == 0 {
			t.Errorf("node %d owns no leaver", i)
		}
		for _, l := range r.Summary.Leavers {
			if name := ref.ByIndex(l).String(); !strings.Contains(rep.Spans, "departure "+name+":") {
				t.Errorf("node %d: span trees do not name owned leaver %s:\n%s", i, name, rep.Spans)
			}
		}
		if r.Summary.Stall != "livelock" || r.Converged {
			t.Errorf("node %d: converged=%v summary stall %q, want livelock", i, r.Converged, r.Summary.Stall)
		}
	}
}
