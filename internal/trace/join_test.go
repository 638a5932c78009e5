package trace_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fdp/internal/sim"
	"fdp/internal/trace"
)

// nodeHeader builds a multi-node header for join tests.
func nodeHeader(node, nodes int) trace.Header {
	return trace.Header{Version: trace.Version, Engine: trace.EngineNode,
		Scenario: testScenario(6, 7), Node: node, Nodes: nodes}
}

// journalBytes renders a journal for the given header and records.
func journalBytes(t *testing.T, hdr trace.Header, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJournal(&buf, hdr, recs); err != nil {
		t.Fatalf("WriteJournal: %v", err)
	}
	return buf.Bytes()
}

func TestReadJournalDiagnosesTruncatedTail(t *testing.T) {
	base := trace.NodeCausalBase(0)
	recs := []trace.Record{
		{Step: 1, Kind: "timeout", Proc: "p1", CID: base + 1, Clock: 1},
		{Step: 2, Kind: "send", Proc: "p1", Peer: "p2", Label: "present", CID: base + 2, MsgID: base + 2, Clock: 2},
		{Step: 3, Kind: "deliver", Proc: "p2", Peer: "p1", Label: "present", CID: base + 3, MsgID: base + 2, Clock: 3},
	}
	whole := journalBytes(t, nodeHeader(0, 1), recs)

	// Chop the journal mid-way through its final line, as a killed writer
	// would leave it.
	cut := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 10
	hdr, got, err := trace.ReadJournal(bytes.NewReader(whole[:cut]))
	var trunc *trace.TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("want TruncatedError, got %v", err)
	}
	if trunc.Records != 2 || trunc.LastCID != base+2 || trunc.Line != 4 {
		t.Fatalf("truncation diagnosis wrong: %+v", trunc)
	}
	if len(got) != 2 || got[1].CID != base+2 || hdr.Node != 0 || hdr.Nodes != 1 {
		t.Fatalf("intact prefix not returned: hdr=%+v recs=%v", hdr, got)
	}

	// A bad line with an intact record after it is corruption, not
	// truncation: no prefix comes back.
	lines := bytes.SplitAfter(whole, []byte("\n"))
	corrupt := bytes.Join([][]byte{lines[0], lines[1], []byte("{\"step\": garbled\n"), lines[2], lines[3]}, nil)
	_, _, err = trace.ReadJournal(bytes.NewReader(corrupt))
	if err == nil || errors.As(err, &trunc) {
		t.Fatalf("mid-journal corruption misdiagnosed: %v", err)
	}
}

func TestStreamWriterBuffersUntilFlush(t *testing.T) {
	var buf bytes.Buffer
	sw := trace.NewWriter(&buf, nodeHeader(0, 1))
	for i := 0; i < 5; i++ {
		sw.Record(sim.Event{Kind: sim.EvTimeout, CID: trace.NodeCausalBase(0) + uint64(i) + 1})
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1 {
		t.Fatalf("%d lines hit the sink before Flush, want the header alone; writer is not buffering", lines)
	}
	if err := sw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if sw.Count() != 5 {
		t.Fatalf("Count = %d, want 5", sw.Count())
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal after flush: %v", err)
	}
	if hdr.Engine != trace.EngineNode || len(recs) != 5 {
		t.Fatalf("flushed journal wrong: engine=%q records=%d", hdr.Engine, len(recs))
	}
	if err := sw.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
}

func TestJoinChecksCrossNodeCausality(t *testing.T) {
	b0, b1 := trace.NodeCausalBase(0), trace.NodeCausalBase(1)
	// Node 0 owns p1 (a leaver that exits); node 1 owns p2. One cross-node
	// message p1→p2, one builder-injected initial message (small CID), and
	// one duplicate delivery of the cross-node message (redial artifact).
	n0 := []trace.Record{
		{Step: 1, Kind: "timeout", Proc: "p1", CID: b0 + 1, Clock: 1},
		{Step: 2, Kind: "send", Proc: "p1", Peer: "p2", Label: "present", CID: b0 + 2, Parent: b0 + 1, MsgID: b0 + 2, Clock: 1},
		{Step: 3, Kind: "exit", Proc: "p1", CID: b0 + 3, Clock: 2},
	}
	n1 := []trace.Record{
		{Step: 1, Kind: "deliver", Proc: "p2", Peer: "", Label: "junk", CID: b1 + 1, MsgID: 2, Clock: 1},
		{Step: 2, Kind: "deliver", Proc: "p2", Peer: "p1", Label: "present", CID: b1 + 2, MsgID: b0 + 2, Clock: 3},
		{Step: 3, Kind: "deliver", Proc: "p2", Peer: "p1", Label: "present", CID: b1 + 3, MsgID: b0 + 2, Clock: 4},
	}
	j, err := trace.Join([]trace.Header{nodeHeader(0, 2), nodeHeader(1, 2)}, [][]trace.Record{n0, n1})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(j.Problems) != 0 {
		t.Fatalf("clean journals reported problems: %v", j.Problems)
	}
	if j.Sends != 1 || j.Delivers != 3 || j.Duplicates != 1 {
		t.Fatalf("counts wrong: %+v", j)
	}
	if len(j.Records) != 6 {
		t.Fatalf("merged %d records, want 6", len(j.Records))
	}
	for i := 1; i < len(j.Records); i++ {
		a, b := j.Records[i-1], j.Records[i]
		if a.Clock > b.Clock || (a.Clock == b.Clock && a.CID >= b.CID) {
			t.Fatalf("merged order violated at %d: %+v then %+v", i, a, b)
		}
	}

	// Violations: an orphan delivery, a clock inversion, and a CID reused
	// across nodes must each surface as problems.
	bad1 := append([]trace.Record{}, n1...)
	bad1 = append(bad1,
		trace.Record{Step: 4, Kind: "deliver", Proc: "p2", Peer: "p1", Label: "forward", CID: b1 + 4, MsgID: b1 + 900, Clock: 5},
		trace.Record{Step: 5, Kind: "deliver", Proc: "p1", Peer: "p1", Label: "present", CID: b0 + 1, MsgID: b0 + 2, Clock: 1})
	j, err = trace.Join([]trace.Header{nodeHeader(0, 2), nodeHeader(1, 2)}, [][]trace.Record{n0, bad1})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	wants := []string{"no send record", "not after send clock", "appears in node 0 and node 1", "sent to p2 but delivered at p1"}
	for _, w := range wants {
		found := false
		for _, p := range j.Problems {
			if strings.Contains(p, w) {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing problem %q in %v", w, j.Problems)
		}
	}

	// Mismatched header sets are hard errors.
	if _, err := trace.Join([]trace.Header{nodeHeader(0, 2), nodeHeader(0, 2)}, [][]trace.Record{n0, n1}); err == nil {
		t.Fatal("duplicate node ids accepted")
	}
	other := nodeHeader(1, 2)
	other.Scenario.Seed = 99
	if _, err := trace.Join([]trace.Header{nodeHeader(0, 2), other}, [][]trace.Record{n0, n1}); err == nil {
		t.Fatal("diverging scenarios accepted")
	}
}

// TestJoinChecksALoneRuntimeJournal joins one runtime journal: its initial
// messages (identities below its lowest send) need no send record, every
// other delivery does, and a runtime journal is never a slice of a mesh run.
func TestJoinChecksALoneRuntimeJournal(t *testing.T) {
	hdr := trace.Header{Version: trace.Version, Engine: trace.EngineRuntime, Scenario: testScenario(6, 7)}
	recs := []trace.Record{
		{Step: 0, Kind: "deliver", Proc: "p2", Label: "junk", CID: 11, MsgID: 3, Clock: 1},
		{Step: 1, Kind: "timeout", Proc: "p1", CID: 12, Clock: 1},
		{Step: 1, Kind: "send", Proc: "p1", Peer: "p2", Label: "present", CID: 13, Parent: 12, MsgID: 13, Clock: 1},
		{Step: 2, Kind: "deliver", Proc: "p2", Peer: "p1", Label: "present", CID: 14, MsgID: 13, Clock: 2},
	}
	j, err := trace.Join([]trace.Header{hdr}, [][]trace.Record{recs})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(j.Problems) != 0 || j.Sends != 1 || j.Delivers != 2 || j.Duplicates != 0 || j.Nodes != 1 {
		t.Fatalf("clean runtime journal joined as %+v", j)
	}
	orphan := append(recs, trace.Record{Step: 3, Kind: "deliver", Proc: "p1", Peer: "p2", Label: "forward", CID: 15, MsgID: 40, Clock: 3})
	if j, err = trace.Join([]trace.Header{hdr}, [][]trace.Record{orphan}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(j.Problems) != 1 || !strings.Contains(j.Problems[0], "no send record") {
		t.Fatalf("orphan delivery in a runtime journal: problems=%v", j.Problems)
	}
	if _, err := trace.Join([]trace.Header{hdr, hdr}, [][]trace.Record{recs, recs}); err == nil {
		t.Fatal("two runtime journals joined as a mesh run")
	}
}
