package transport

import (
	"slices"
	"sync"
	"testing"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// collector is a Handler that records everything it receives.
type collector struct {
	mu        sync.Mutex
	delivers  []sim.Message
	deliverTo []ref.Ref
	bounces   []sim.Message
	bounceTo  []ref.Ref
	controls  []string
}

func (c *collector) HandleDeliver(from NodeID, to ref.Ref, msg sim.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delivers = append(c.delivers, msg)
	c.deliverTo = append(c.deliverTo, to)
}

func (c *collector) HandleBounce(from NodeID, to ref.Ref, msg sim.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bounces = append(c.bounces, msg)
	c.bounceTo = append(c.bounceTo, to)
}

func (c *collector) HandleControl(from NodeID, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.controls = append(c.controls, string(payload))
}

func (c *collector) counts() (int, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.delivers), len(c.bounces), len(c.controls)
}

func TestLoopbackDeliversThroughWireCodec(t *testing.T) {
	rs := testRefs(5)
	mesh := NewLoopback(1)
	h0, h1 := &collector{}, &collector{}
	p0, p1 := mesh.Attach(h0), mesh.Attach(h1)
	if p0.ID() != 0 || p1.ID() != 1 {
		t.Fatalf("port ids %d,%d", p0.ID(), p1.ID())
	}

	msg := sampleMessage(rs, "route")
	if !p0.Send(1, rs[4], msg) {
		t.Fatal("send refused")
	}
	if d, _, _ := h1.counts(); d != 0 {
		t.Fatal("a frame was delivered inside Send")
	}
	mesh.Advance(maxLatency)
	if d, _, _ := h1.counts(); d != 1 {
		t.Fatalf("delivers = %d, want 1", d)
	}
	got := h1.delivers[0]
	if h1.deliverTo[0] != rs[4] || got.Label != msg.Label || got.From() != rs[3] ||
		got.CID() != msg.CID() || got.SendClock() != msg.SendClock() {
		t.Fatalf("message mangled in flight: %+v", got)
	}

	// A bounce goes back to the origin node's handler with the original
	// message intact.
	if !p1.SendBounce(0, rs[4], got) {
		t.Fatal("bounce refused")
	}
	mesh.Advance(maxLatency)
	if _, b, _ := h0.counts(); b != 1 || h0.bounceTo[0] != rs[4] || h0.bounces[0].CID() != msg.CID() {
		t.Fatalf("bounce mangled: %+v to %v", h0.bounces, h0.bounceTo)
	}

	// Control broadcast reaches every other port, not the sender.
	p0.BroadcastControl([]byte("done"))
	mesh.Advance(maxLatency)
	if _, _, c := h0.counts(); c != 0 {
		t.Fatal("broadcast echoed to sender")
	}
	if _, _, c := h1.counts(); c != 1 || h1.controls[0] != "done" {
		t.Fatalf("control lost: %v", h1.controls)
	}

	// Unknown peers and closed ports refuse.
	if p0.Send(9, rs[4], msg) {
		t.Fatal("send to unknown node accepted")
	}
	p1.Close()
	if p0.Send(1, rs[4], msg) {
		t.Fatal("send to closed port accepted")
	}
}

func TestLoopbackChaosHooks(t *testing.T) {
	rs := testRefs(5)
	mesh := NewLoopback(1)
	h0, h1 := &collector{}, &collector{}
	p0, _ := mesh.Attach(h0), mesh.Attach(h1)

	drop := true
	mesh.Drop = func(from, to NodeID, msg sim.Message) bool { return drop }
	msg := sampleMessage(rs, nil)
	if !p0.Send(1, rs[4], msg) {
		t.Fatal("dropped send must still be accepted (failure is async in the real transport)")
	}
	mesh.Advance(maxLatency)
	if d, b, _ := h0.counts(); b != 1 || d != 0 {
		t.Fatalf("drop must bounce to sender: delivers=%d bounces=%d", d, b)
	}
	if dd, _, _ := h1.counts(); dd != 0 {
		t.Fatal("dropped frame reached the receiver")
	}

	drop = false
	mesh.Duplicate = func(from, to NodeID, msg sim.Message) bool { return true }
	if !p0.Send(1, rs[4], msg) {
		t.Fatal("send refused")
	}
	mesh.Advance(maxLatency)
	if d, _, _ := h1.counts(); d != 2 {
		t.Fatalf("duplicate hook delivered %d times, want 2", d)
	}
}

// TestLoopbackSeededOrderKeepsLinksFIFO: frames from two senders interleave
// in an order drawn from the seed — the same for the same seed — while each
// link delivers in send order, and a port takes at most burst frames per
// Advance.
func TestLoopbackSeededOrderKeepsLinksFIFO(t *testing.T) {
	rs := testRefs(5)
	order := func(seed int64) []uint64 {
		mesh := NewLoopback(seed)
		h := &collector{}
		mesh.Attach(h)
		p1, p2 := mesh.Attach(&collector{}), mesh.Attach(&collector{})
		for i := uint64(1); i <= burst; i++ {
			p1.Send(0, rs[4], sim.StampCausal(sampleMessage(rs, nil), i, 0, 1))
			p2.Send(0, rs[4], sim.StampCausal(sampleMessage(rs, nil), burst+i, 0, 1))
		}
		mesh.Advance(maxLatency)
		if d, _, _ := h.counts(); d != burst {
			t.Fatalf("one Advance delivered %d frames to one port, want %d", d, burst)
		}
		mesh.Advance(0)
		var cids []uint64
		for _, m := range h.delivers {
			cids = append(cids, m.CID())
		}
		return cids
	}
	a := order(3)
	if len(a) != 2*burst {
		t.Fatalf("delivered %d frames, want %d", len(a), 2*burst)
	}
	var last [2]uint64
	mixed := false
	for i, c := range a {
		link := 0
		if c > burst {
			link = 1
		}
		if c <= last[link] {
			t.Fatalf("link %d reordered: cid %d after %d", link, c, last[link])
		}
		last[link] = c
		mixed = mixed || (i > 0 && (a[i-1] > burst) != (c > burst))
	}
	if !mixed {
		t.Fatal("the two links did not interleave")
	}
	if !slices.Equal(a, order(3)) {
		t.Fatal("the same seed gave two delivery orders")
	}
	if slices.Equal(a, order(4)) {
		t.Fatal("two seeds gave one delivery order")
	}
}
