package transport

import (
	"encoding/binary"
	"net"
	"reflect"
	"testing"

	"fdp/internal/churn"
	"fdp/internal/obs"
	"fdp/internal/oracle"
)

// hugeLabelBody is a 13-byte data body whose label length is 2^63-1: as an
// int it is positive, and added to the read offset it wraps negative.
func hugeLabelBody() []byte {
	body := []byte{1, 2} // to, from
	body = binary.AppendUvarint(body, 0x7FFFFFFFFFFFFFFF)
	return append(body, 0, 0) // two of the bytes the label claims
}

// wrappedRefCountBody claims 2^64-1 references: int(count) is -1.
func wrappedRefCountBody() []byte {
	body := []byte{1, 2, 0} // to, from, empty label
	return binary.AppendUvarint(body, ^uint64(0))
}

// TestDecodeRefusesHostileLengths feeds the decoder length fields chosen to
// overflow its bounds arithmetic: each must come back as an error.
func TestDecodeRefusesHostileLengths(t *testing.T) {
	for name, body := range map[string][]byte{
		"label length 2^63-1": hugeLabelBody(),
		"ref count 2^64-1":    wrappedRefCountBody(),
	} {
		if _, _, err := decodeDataBody(body); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
	// A sender id too wide for a node index would wrap into a negative
	// NodeID — LocalBounce among them — so the frame reader refuses it.
	wide := encodeFrame(frameBounce, LocalBounce, []byte("x"))
	if _, from, _, err := readFrameBytes(wide); err == nil {
		t.Errorf("frame claiming sender %d accepted", from)
	}
}

// TestTCPCountsAndSurvivesHostileFrame is the remote form of the first case
// above: at the parent the decode panicked on the reader goroutine and took
// the process down. The connection must drop, the frame must be counted,
// and the listener must keep serving.
func TestTCPCountsAndSurvivesHostileFrame(t *testing.T) {
	rs := testRefs(5)
	h := &collector{}
	reg := obs.NewRegistry()
	tr, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Handler: h, Metrics: reg,
		Peers: map[NodeID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rejected := RejectedCounter(reg, 0)

	send := func(frame []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	send(encodeFrame(frameData, 1, hugeLabelBody()))
	waitFor(t, "the hostile frame to be counted", func() bool { return rejected.Value() == 1 })

	good, err := encodeDataBody(rs[4], sampleMessage(rs, "x"))
	if err != nil {
		t.Fatal(err)
	}
	send(encodeFrame(frameData, 1, good))
	waitFor(t, "delivery after the hostile frame", func() bool { d, _, _ := h.counts(); return d == 1 })
	if got := rejected.Value(); got != 1 {
		t.Fatalf("rejected frames = %d, want 1", got)
	}
}

// FuzzDecodeFrame holds the consuming side of the wire to three promises on
// arbitrary bytes: nothing panics; whatever decodes re-encodes to a body that
// decodes to an equal message; and the decoded target and references — any
// 32-bit identity a peer cared to send — go through the engine's Inject
// without indexing out of range.
func FuzzDecodeFrame(f *testing.F) {
	rs := testRefs(5)
	for _, p := range []any{nil, "route", int64(-9), 17, true, []byte{0, 1, 2}} {
		body, err := encodeDataBody(rs[4], sampleMessage(rs, p))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeFrame(frameData, 1, body))
	}
	f.Add(encodeFrame(frameData, 1, hugeLabelBody()))
	f.Add(encodeFrame(frameBounce, 1, wrappedRefCountBody()))
	// A sender no 2-node run has, and an answering node out of range: both
	// decode; refusing them is the node layer's job (FuzzControl).
	f.Add(encodeFrame(frameData, 7, []byte{1, 2, 0, 0, 0, 0, 0, payNil}))
	f.Add(encodeFrame(frameControl, 1, []byte(`{"k":"oa","r":1,"n":9}`)))
	// Identities no space minted: target 2^32-1, and carried 2^31 and 1000 to
	// a live target.
	f.Add(encodeFrame(frameData, 1, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 2, 0, 0, 0, 0, 0, payNil}))
	f.Add(encodeFrame(frameData, 1, []byte{1, 2, 0, 2, 0x80, 0x80, 0x80, 0x80, 0x08, 1, 0xe8, 0x07, 0, 0, 0, 0, payNil}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		kind, from, body, err := readFrameBytes(raw)
		if err != nil {
			return
		}
		if from < 0 {
			t.Fatalf("frame reader produced negative sender %d", from)
		}
		if kind != frameData && kind != frameBounce {
			return
		}
		to, msg, err := decodeDataBody(body)
		if err != nil {
			return
		}
		again, err := encodeDataBody(to, msg)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		to2, msg2, err := decodeDataBody(again)
		if err != nil || to2 != to || !reflect.DeepEqual(msg2, msg) {
			t.Fatalf("re-encoding changed the message: %v\n got %v %+v\nwant %v %+v", err, to2, msg2, to, msg)
		}
		w := churn.Build(churn.Config{N: 4, Topology: churn.TopoLine, Oracle: oracle.Single{}}).World
		queued := w.Stats().TotalInQueue
		if ok := w.Inject(to, msg); ok != (w.Stats().TotalInQueue == queued+1) {
			t.Fatalf("Inject(%v) = %v with %d → %d queued", to, ok, queued, w.Stats().TotalInQueue)
		}
	})
}
