package transport

import (
	"fmt"
	"sync"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Loopback connects any number of in-process nodes through the real wire
// codec: every Send seals the message into frame bytes and every delivery
// decodes them again, so a loopback run covers exactly the serialization
// path the TCP transport uses — minus the sockets. The node tests use it to
// check verdict parity between a multi-node run and the sequential
// simulator without binding ports.
//
// Chaos hooks make links misbehave deterministically: Drop turns a frame
// into an immediate bounce to its sender (a link failure detected at send
// time), Duplicate delivers a frame twice (a redial retransmitting a frame
// the peer already processed). Hooks are consulted on the sender's
// goroutine; set them before traffic starts.
type Loopback struct {
	mu    sync.Mutex //fdp:lockleaf
	ports []*Port

	// Drop, if set, is consulted per data frame; true bounces the frame
	// back to the sending port's handler instead of delivering it.
	Drop func(from, to NodeID, msg sim.Message) bool
	// Duplicate, if set, is consulted per data frame; true delivers the
	// frame twice.
	Duplicate func(from, to NodeID, msg sim.Message) bool
}

// NewLoopback returns an empty mesh; attach a port per node.
func NewLoopback() *Loopback { return &Loopback{} }

// Attach adds a node with the given handler and returns its transport
// endpoint. Node ids are assigned in attach order, starting at 0.
func (l *Loopback) Attach(h Handler) *Port {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &Port{l: l, id: NodeID(len(l.ports)), h: h}
	l.ports = append(l.ports, p)
	return p
}

func (l *Loopback) port(id NodeID) *Port {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(id) < 0 || int(id) >= len(l.ports) {
		return nil
	}
	p := l.ports[id]
	if p.closed {
		return nil
	}
	return p
}

// Port is one node's endpoint on a Loopback mesh.
type Port struct {
	l  *Loopback
	id NodeID
	h  Handler

	mu     sync.Mutex //fdp:lockleaf
	closed bool
}

var _ Transport = (*Port)(nil)

// ID returns the port's node id.
func (p *Port) ID() NodeID { return p.id }

// Send seals msg and delivers it to the target node's handler, applying the
// mesh's chaos hooks.
func (p *Port) Send(node NodeID, to ref.Ref, msg sim.Message) bool {
	body, err := encodeDataBody(to, msg)
	if err != nil {
		return false
	}
	dst := p.l.port(node)
	if dst == nil || p.isClosed() {
		return false
	}
	if p.l.Drop != nil && p.l.Drop(p.id, node, msg) {
		// The link "failed" with the frame in hand: the sender's handler
		// owes the original sender an undeliverable callback, exactly as
		// the TCP transport does when a redial budget runs out.
		p.h.HandleBounce(LocalBounce, to, msg)
		return true
	}
	n := 1
	if p.l.Duplicate != nil && p.l.Duplicate(p.id, node, msg) {
		n = 2
	}
	for i := 0; i < n; i++ {
		if !deliver(dst, frameData, p.id, body) {
			return false
		}
	}
	return true
}

// SendBounce seals the undeliverable message and returns it to the node
// that sent it.
func (p *Port) SendBounce(node NodeID, to ref.Ref, msg sim.Message) bool {
	body, err := encodeDataBody(to, msg)
	if err != nil {
		return false
	}
	dst := p.l.port(node)
	if dst == nil || p.isClosed() {
		return false
	}
	return deliver(dst, frameBounce, p.id, body)
}

// SendControl ships an opaque control payload to one peer.
func (p *Port) SendControl(node NodeID, payload []byte) bool {
	dst := p.l.port(node)
	if dst == nil || p.isClosed() {
		return false
	}
	return deliver(dst, frameControl, p.id, append([]byte(nil), payload...))
}

// BroadcastControl ships an opaque control payload to every other port.
func (p *Port) BroadcastControl(payload []byte) {
	p.l.mu.Lock()
	n := len(p.l.ports)
	p.l.mu.Unlock()
	for id := 0; id < n; id++ {
		if NodeID(id) != p.id {
			p.SendControl(NodeID(id), payload)
		}
	}
}

// Close detaches the port; frames to or from it are refused afterwards.
func (p *Port) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	return nil
}

func (p *Port) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// deliver round-trips the frame through the wire encoding and dispatches it
// on the destination handler, synchronously on the caller's goroutine.
func deliver(dst *Port, kind byte, from NodeID, body []byte) bool {
	// Encode and re-read the full frame so loopback traffic exercises the
	// exact byte path TCP uses; a codec asymmetry fails loudly here.
	gotKind, gotFrom, gotBody, err := readFrameBytes(encodeFrame(kind, from, body))
	if err != nil || gotKind != kind || gotFrom != from {
		panic(fmt.Sprintf("transport: loopback frame did not round-trip: %v", err))
	}
	switch kind {
	case frameData, frameBounce:
		to, msg, err := decodeDataBody(gotBody)
		if err != nil {
			panic(fmt.Sprintf("transport: loopback body did not round-trip: %v", err))
		}
		if kind == frameData {
			dst.h.HandleDeliver(from, to, msg)
		} else {
			dst.h.HandleBounce(from, to, msg)
		}
	case frameControl:
		dst.h.HandleControl(from, gotBody)
	}
	return true
}
