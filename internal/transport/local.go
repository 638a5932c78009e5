package transport

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// maxLatency bounds the latency a Loopback draws for one frame, and
// burst is how many frames one port takes per Advance; the rest stay
// queued, as frames wait in a socket buffer for a busy reader.
const (
	maxLatency = 250 * time.Microsecond
	burst      = 1024
)

// Loopback connects any number of in-process nodes through the real wire
// codec on one virtual clock. Every Send seals the message into frame bytes
// and reads it back at once, so a loopback run covers exactly the
// serialization path the TCP transport uses — minus the sockets — and a
// codec asymmetry panics in the sender. The decoded frame is queued with a
// latency drawn from the mesh's seeded generator; Advance moves the clock
// and hands every due frame to its handler in due order, send order
// breaking ties. A link never reorders: a frame is due no earlier than the
// one sent before it on the same link, as on a TCP connection (the node
// layer's exactly-once watermark relies on that).
//
// Nothing is delivered inside a Send, and a Loopback is not safe for
// concurrent use: one goroutine sends and advances for every port. The same
// seed and the same calls give the same deliveries in the same order.
//
// Chaos hooks make links misbehave deterministically: Drop turns a frame
// into a bounce back to its sender (a link failure; the bounce is queued
// like any frame), Duplicate queues a frame twice (a redial retransmitting a
// frame the peer already processed). Set them before traffic starts.
type Loopback struct {
	ports []*Port
	rng   *rand.Rand
	now   time.Time
	sent  int
	queue []*frame
	last  map[[2]NodeID]time.Time // latest due time queued per (from, to) link

	// Drop, if set, is consulted per data frame; true bounces the frame
	// back to the sending port's handler instead of delivering it.
	Drop func(from, to NodeID, msg sim.Message) bool
	// Duplicate, if set, is consulted per data frame; true delivers the
	// frame twice.
	Duplicate func(from, to NodeID, msg sim.Message) bool
}

// frame is one decoded frame waiting for its due time; handle hands it to
// the destination's handler.
type frame struct {
	due    time.Time
	seq    int
	dst    *Port
	handle func(Handler)
}

// NewLoopback returns an empty mesh whose latencies are drawn from seed;
// attach a port per node. Its clock starts at the Unix epoch.
func NewLoopback(seed int64) *Loopback {
	return &Loopback{rng: rand.New(rand.NewSource(seed)), now: time.Unix(0, 0),
		last: make(map[[2]NodeID]time.Time)}
}

// Attach adds a node with the given handler and returns its transport
// endpoint. Node ids are assigned in attach order, starting at 0.
func (l *Loopback) Attach(h Handler) *Port {
	p := &Port{l: l, id: NodeID(len(l.ports)), h: h}
	l.ports = append(l.ports, p)
	return p
}

// Now returns the mesh's virtual clock.
func (l *Loopback) Now() time.Time { return l.now }

// Advance moves the clock by d and delivers the frames now due, at most
// burst per port. Frames a handler sends meanwhile wait for a later Advance.
func (l *Loopback) Advance(d time.Duration) {
	l.now = l.now.Add(d)
	slices.SortFunc(l.queue, func(a, b *frame) int {
		return cmp.Or(a.due.Compare(b.due), cmp.Compare(a.seq, b.seq))
	})
	n := 0
	for n < len(l.queue) && !l.queue[n].due.After(l.now) {
		n++
	}
	due := l.queue[:n:n]
	l.queue = l.queue[n:]
	taken := make([]int, len(l.ports))
	for _, f := range due {
		if taken[f.dst.id]++; taken[f.dst.id] > burst {
			l.queue = append(l.queue, f)
		} else if !f.dst.closed {
			f.handle(f.dst.h)
		}
	}
}

// push round-trips one frame through the wire encoding and queues it on
// the from → dst link.
func (l *Loopback) push(dst *Port, kind byte, from NodeID, body []byte) {
	if from != LocalBounce {
		gotKind, gotFrom, gotBody, err := readFrameBytes(encodeFrame(kind, from, body))
		if err != nil || gotKind != kind || gotFrom != from {
			panic(fmt.Sprintf("transport: loopback frame did not round-trip: %v", err))
		}
		body = gotBody
	}
	f := &frame{dst: dst, handle: func(h Handler) { h.HandleControl(from, body) }}
	if kind != frameControl {
		to, msg, err := decodeDataBody(body)
		if err != nil {
			panic(fmt.Sprintf("transport: loopback body did not round-trip: %v", err))
		}
		f.handle = func(h Handler) { h.HandleBounce(from, to, msg) }
		if kind == frameData {
			f.handle = func(h Handler) { h.HandleDeliver(from, to, msg) }
		}
	}
	link := [2]NodeID{from, dst.id}
	f.due = l.now.Add(time.Duration(l.rng.Int63n(int64(maxLatency))))
	if f.due.Before(l.last[link]) {
		f.due = l.last[link]
	}
	l.last[link], l.sent, f.seq = f.due, l.sent+1, l.sent
	l.queue = append(l.queue, f)
}

// Port is one node's endpoint on a Loopback mesh.
type Port struct {
	l      *Loopback
	id     NodeID
	h      Handler
	closed bool
}

var _ Transport = (*Port)(nil)

// ID returns the port's node id.
func (p *Port) ID() NodeID { return p.id }

// peer returns the open port with the given id, or nil if it or p is
// closed.
func (p *Port) peer(id NodeID) *Port {
	if p.closed || id < 0 || int(id) >= len(p.l.ports) || p.l.ports[id].closed {
		return nil
	}
	return p.l.ports[id]
}

// Send seals msg and queues it for the target node's handler, applying the
// mesh's chaos hooks.
func (p *Port) Send(node NodeID, to ref.Ref, msg sim.Message) bool {
	body, err := encodeDataBody(to, msg)
	dst := p.peer(node)
	if err != nil || dst == nil {
		return false
	}
	if p.l.Drop != nil && p.l.Drop(p.id, node, msg) {
		// The link "failed" with the frame in hand: the sender's handler
		// owes the original sender an undeliverable callback, exactly as
		// the TCP transport does when a redial budget runs out.
		p.l.push(p, frameBounce, LocalBounce, body)
		return true
	}
	p.l.push(dst, frameData, p.id, body)
	if p.l.Duplicate != nil && p.l.Duplicate(p.id, node, msg) {
		p.l.push(dst, frameData, p.id, body)
	}
	return true
}

// SendBounce seals the undeliverable message and returns it to the node
// that sent it.
func (p *Port) SendBounce(node NodeID, to ref.Ref, msg sim.Message) bool {
	body, err := encodeDataBody(to, msg)
	dst := p.peer(node)
	if err != nil || dst == nil {
		return false
	}
	p.l.push(dst, frameBounce, p.id, body)
	return true
}

// SendControl ships an opaque control payload to one peer.
func (p *Port) SendControl(node NodeID, payload []byte) bool {
	dst := p.peer(node)
	if dst == nil {
		return false
	}
	p.l.push(dst, frameControl, p.id, payload)
	return true
}

// BroadcastControl ships an opaque control payload to every other port.
func (p *Port) BroadcastControl(payload []byte) {
	for id := range p.l.ports {
		if NodeID(id) != p.id {
			p.SendControl(NodeID(id), payload)
		}
	}
}

// Close detaches the port; frames to or from it are refused afterwards, and
// frames already queued for it are discarded.
func (p *Port) Close() error {
	p.closed = true
	return nil
}
