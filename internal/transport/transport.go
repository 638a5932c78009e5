// Package transport carries protocol messages between engines. The model of
// Section 1.1 has exactly one channel primitive — "u <- action(params)" with
// no loss, no duplication bound and no FIFO order — and the repository grew
// three ways to realize it: the sequential simulator's per-process channel
// multiset, the concurrent runtime's sharded mailboxes, and (this package's
// reason to exist) length-prefixed TCP frames between OS processes. The
// first two satisfy Engine natively; the third is the Transport
// implementations here, which move a sealed wire encoding of a message to
// the node owning its target and inject it there.
//
// The wire codec (wire.go) serializes references through ref.Wire/FromWire
// only — protocol packages never see the bytes, so the refopacity and
// primdecomp disciplines are untouched: to every protocol a reference is
// still an opaque value, and a remote send is still the single atomic-action
// move it was on one engine. Frames carry the full causal metadata (CID,
// parent, Lamport clock), so journals written on different nodes join into
// one happens-before order (trace.Join).
//
// Delivery failure is a first-class outcome, not an exception: a frame whose
// target is gone on the owning node, or whose link died past its redial
// budget, comes back as a bounce, which the node layer feeds to the engine's
// undeliverable path (sim.World.Bounce) — the transport-level failure
// detection Section 4's postprocess action presupposes.
package transport

import (
	"fdp/internal/parallel"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// NodeID identifies one engine instance (one OS process in a multi-node
// run, one attached port on an in-process Loopback).
type NodeID int

// LocalBounce is the Handler.HandleBounce sender for bounces the transport
// synthesizes itself when a link dies: no peer ever saw the frame.
const LocalBounce NodeID = -1

// Engine is the delivery surface a local engine exposes to its node's
// transport: inject one causally stamped message into the target process's
// channel, reporting false when the target is unknown or gone (the caller
// then owes the origin a bounce). Both local engines satisfy it natively —
// the simulator's channel multiset and the runtime's sharded mailboxes are
// the two in-process implementations of the model's channel, the wire
// transport the third.
type Engine interface {
	Inject(to ref.Ref, msg sim.Message) bool
}

var (
	_ Engine = (*sim.World)(nil)
	_ Engine = (*parallel.Runtime)(nil)
)

// Handler is the receiving half a node registers with its transport. Calls
// arrive on transport goroutines (or, for Loopback, on the goroutine that
// calls Advance): implementations must be safe for concurrent use and must
// not call back into the transport's Close.
type Handler interface {
	// HandleDeliver hands over a data frame: msg (sender and causal
	// metadata restored) addressed to the local process to.
	HandleDeliver(from NodeID, to ref.Ref, msg sim.Message)
	// HandleBounce reports that a message this node's engine sent could
	// not be delivered. from is the peer that refused it (target gone on
	// the owning node) or LocalBounce when the transport itself gave up
	// (link dead past its redial budget — the frame never arrived, which
	// oracle accounting must treat differently from a frame that did). to
	// is the unreachable target, msg the original message (msg.From() is
	// the local sender owed the undeliverable callback).
	HandleBounce(from NodeID, to ref.Ref, msg sim.Message)
	// HandleControl hands over an opaque control payload (oracle rounds,
	// done gossip — the node layer's coordination traffic).
	HandleControl(from NodeID, payload []byte)
}

// Transport moves frames between nodes. Send/SendBounce/SendControl are
// asynchronous and safe for concurrent use; a true return means the frame
// was accepted for delivery (which may still end in a bounce), false that
// it was refused outright (unknown peer, closed transport, unencodable
// payload) — for Send, the caller treats that as the model's drop path.
type Transport interface {
	// Send routes a data frame to the given node's engine.
	Send(node NodeID, to ref.Ref, msg sim.Message) bool
	// SendBounce returns an undeliverable message to the node that sent
	// it, where the handler owes it to the original sender.
	SendBounce(node NodeID, to ref.Ref, msg sim.Message) bool
	// SendControl ships an opaque control payload to one peer.
	SendControl(node NodeID, payload []byte) bool
	// BroadcastControl ships an opaque control payload to every peer.
	BroadcastControl(payload []byte)
	// Close tears the transport down: listeners close, queued frames are
	// abandoned, in-flight handler calls complete.
	Close() error
}
