package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// nastyStrings are the label/note/name values the encoder's fast path must
// refuse: each holds a byte encoding/json escapes or rewrites.
var nastyStrings = []string{
	"", "present", "a b~", `say "hi"`, `back\slash`, "<tag>&amp;", "nul\x00unit\x1f",
	"tab\tnl\ncr\r", "bs\bff\f", "del\x7f", "é", "日本語", "line\u2028para\u2029",
	"\xff\xfe", "cut\xc3", "\xed\xa0\x80", "p3", "⊥",
}

// checkLine holds both encoder entries to encoding/json for one event: the
// event entry against json.Marshal(FromEvent(e)), and the Record entry
// against json.Marshal of the same record with kind, proc and peer replaced
// by arbitrary strings (a Record read from a hostile journal carries any).
func checkLine(t testing.TB, e sim.Event, kind, proc, peer string) {
	t.Helper()
	rec := FromEvent(e)
	if got, want := appendEvent(nil, &e), marshalLine(t, rec); !bytes.Equal(got, want) {
		t.Fatalf("event line differs from encoding/json\n got %q\nwant %q", got, want)
	}
	rec.Kind, rec.Proc, rec.Peer = kind, proc, peer
	if got, want := appendRecord(nil, &rec), marshalLine(t, rec); !bytes.Equal(got, want) {
		t.Fatalf("record line differs from encoding/json\n got %q\nwant %q", got, want)
	}
}

func marshalLine(t testing.TB, rec Record) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestEncoderMatchesEncodingJSON is the differential property test the
// on-disk format rests on: a seeded stream of random events — every kind,
// nil and non-nil proc and peer, zero and non-zero optional fields, strings
// from nastyStrings and random bytes — encodes byte for byte as
// encoding/json renders it.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	str := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			return string(b)
		default:
			return nastyStrings[rng.Intn(len(nastyStrings))]
		}
	}
	u64 := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Uint64()
		default:
			return uint64(rng.Intn(1 << 20))
		}
	}
	num := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return int(rng.Uint64())
		default:
			return rng.Intn(1 << 16)
		}
	}
	rf := func() ref.Ref {
		switch rng.Intn(4) {
		case 0:
			return ref.Nil
		case 1:
			return ref.ByIndex(int(rng.Int31()))
		default:
			return ref.ByIndex(rng.Intn(1 << 14))
		}
	}
	for i := 0; i < 20000; i++ {
		e := sim.Event{
			Step: num(), Kind: sim.EventKind(rng.Intn(sim.NumEventKinds)),
			Proc: rf(), Peer: rf(), Label: str(), Message: str(),
			Age: num(), Depth: num(),
			CID: u64(), Parent: u64(), MsgID: u64(), MsgSeq: u64(), Clock: u64(),
		}
		checkLine(t, e, str(), str(), str())
	}
}

// FuzzRecordLine is the same contract as a native fuzz target; the seeds are
// the differential test's corner cases.
func FuzzRecordLine(f *testing.F) {
	f.Add(0, uint8(0), int32(0), int32(-1), "", uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), 0, 0, "")
	f.Add(7, uint8(2), int32(2), int32(5), "present", uint64(9), uint64(4), uint64(9), uint64(3), uint64(12), 2, 1, "note")
	f.Add(math.MinInt, uint8(255), int32(math.MaxInt32), int32(math.MinInt32), `"\`,
		uint64(math.MaxUint64), uint64(1), uint64(1), uint64(1), uint64(1), math.MaxInt, -1, "<>&")
	for i, s := range nastyStrings {
		f.Add(i, uint8(i%sim.NumEventKinds), int32(i), int32(i-1), s, uint64(i), uint64(0), uint64(i), uint64(0), uint64(i), 0, i, nastyStrings[len(nastyStrings)-1-i])
	}
	f.Fuzz(func(t *testing.T, step int, kind uint8, proc, peer int32, label string,
		cid, parent, msg, mseq, clock uint64, age, depth int, note string) {
		e := sim.Event{
			Step: step, Kind: sim.EventKind(kind),
			Proc: ref.ByIndex(int(proc)), Peer: ref.ByIndex(int(peer)), Label: label, Message: note,
			Age: age, Depth: depth,
			CID: cid, Parent: parent, MsgID: msg, MsgSeq: mseq, Clock: clock,
		}
		checkLine(t, e, label, note, label)
	})
}

// TestParseRefIsStrict: a process name from a journal is accepted only in
// the one spelling refString writes. The first five rejected inputs parsed
// under the fmt.Sscanf reader, the fifth wrapping through int32 onto a real
// process.
func TestParseRefIsStrict(t *testing.T) {
	for _, s := range []string{"p12abc", "p3 ", "p+4", "p007", "p99999999999",
		"p", "p0", "p-1", "P3", " p3", "p1_0", "p2147483648", "3", "pp3"} {
		if r, err := parseRef(s); err == nil {
			t.Errorf("parseRef(%q) = %v, want a bad process name error", s, r)
		}
	}
	for _, s := range []string{"", "⊥"} {
		if r, err := parseRef(s); err != nil || !r.IsNil() {
			t.Errorf("parseRef(%q) = %v, %v, want the nil reference", s, r, err)
		}
	}
	for _, i := range []int{0, 1, 8, 9, 10, 99, 12345, math.MaxInt32 - 1} {
		want := ref.ByIndex(i)
		s := refString(want)
		if got, err := parseRef(s); err != nil || got != want || refString(got) != s {
			t.Errorf("parseRef(%q) = %v, %v, want %v", s, got, err, want)
		}
	}
}
