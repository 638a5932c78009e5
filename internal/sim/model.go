// Package sim implements the distributed-system model of Section 1.1 of the
// paper: a fixed set of processes with unique references, a system-based
// channel variable per process holding a multiset of messages (unbounded
// capacity, no loss, no FIFO order), two kinds of actions (remotely callable
// procedures triggered by messages, and guard-based actions of which only
// the timeout action — guard "true" — is used), the special commands exit
// and sleep, and the awake/asleep/gone process state graph of Figure 1.
//
// Computations are infinite fair sequences of atomic action executions.
// Fairness is weakly fair action execution plus fair message receipt; the
// schedulers in this package guarantee both mechanically (see scheduler.go),
// while still exercising fully asynchronous, non-FIFO behaviour.
package sim

import (
	"fmt"

	"fdp/internal/ref"
)

// Mode is the read-only mode(u) variable: staying or leaving.
type Mode uint8

const (
	// Staying processes want to remain in the overlay.
	Staying Mode = iota
	// Leaving processes request to be excluded from the overlay.
	Leaving
	// Unknown is used only inside the Section 4 framework's message list
	// for not-yet-verified references; mode(u) itself is never Unknown.
	Unknown
	// Absent marks a reference whose process is gone (discovered through
	// an undeliverable message); mode(u) itself is never Absent.
	Absent
)

// String returns the lowercase mode name.
func (m Mode) String() string {
	switch m {
	case Staying:
		return "staying"
	case Leaving:
		return "leaving"
	case Absent:
		return "absent"
	default:
		return "unknown"
	}
}

// Life is the lifecycle state of Figure 1: awake, asleep, or gone.
type Life uint8

const (
	// Awake processes execute enabled actions.
	Awake Life = iota
	// Asleep processes only wake up when processing an incoming message.
	Asleep
	// Gone processes executed exit and never act again.
	Gone
)

// String returns the lowercase lifecycle name.
func (l Life) String() string {
	switch l {
	case Awake:
		return "awake"
	case Asleep:
		return "asleep"
	default:
		return "gone"
	}
}

// RefInfo is a process reference as it travels inside a message, together
// with the sender's knowledge of that process's mode (a.mode(b) in the
// paper). The claim may be wrong — that is exactly the invalid information
// the self-stabilizing protocol must eliminate.
type RefInfo struct {
	Ref  ref.Ref
	Mode Mode
}

// String renders "p3:leaving".
func (ri RefInfo) String() string { return fmt.Sprintf("%v:%v", ri.Ref, ri.Mode) }

// Message is a request to call the action named Label on the receiving
// process. Refs carries all process references in the parameter list (each
// with a mode claim); Payload carries any reference-free extra parameters.
// All references a message transports MUST be listed in Refs — the implicit
// edges of PG are computed from it. Refs is read-only once the message is
// sent: copies of the message share the list (channels, mailboxes, clones,
// snapshots), and a sender may put one list into many messages, as core.Proc
// does with the list naming only itself.
type Message struct {
	Label   string
	Refs    []RefInfo
	Payload any

	from    ref.Ref // sender, for tracing only; the model has no implicit sender
	seq     uint64  // arrival sequence number, a stable identity
	enqStep int     // step at which the message entered the channel, for aging

	// Causal metadata, engine-assigned and invisible to protocols: cid is
	// the message's unique causal identity (drawn from the engine's causal
	// counter at send/enqueue), parent the CID of the action event (timeout
	// or delivery) that triggered the send (0 for initial-state messages),
	// and lclock the sender's Lamport clock at send time. Together they
	// carry the happens-before relation across process boundaries (DESIGN.md
	// §11).
	cid    uint64
	parent uint64
	lclock uint64
}

// From returns the sender for tracing and debugging. Protocol code must not
// use it: the paper's messages carry no implicit sender.
func (m Message) From() ref.Ref { return m.from }

// Seq returns the global arrival sequence number of the message.
func (m Message) Seq() uint64 { return m.seq }

// CID returns the message's unique causal identity, assigned by the engine
// when the message entered the system. Tracing and debugging only.
func (m Message) CID() uint64 { return m.cid }

// CausalParent returns the CID of the action event (timeout or delivery)
// whose execution sent this message, or 0 for initial-state messages.
func (m Message) CausalParent() uint64 { return m.parent }

// SendClock returns the sender's Lamport clock at send time (0 for
// initial-state messages).
func (m Message) SendClock() uint64 { return m.lclock }

// NewMessage builds a message carrying the given references.
func NewMessage(label string, refs ...RefInfo) Message {
	return Message{Label: label, Refs: refs}
}

// StampCausal returns m with the causal metadata set. It exists for the
// concurrent runtime (package parallel), which assigns CIDs from its own
// atomic counter; protocol code never calls it — the engines stamp causal
// identity at send/enqueue themselves.
func StampCausal(m Message, cid, parent, lclock uint64) Message {
	m.cid, m.parent, m.lclock = cid, parent, lclock
	return m
}

// WithSender returns m with the tracing sender set. It exists for the
// concurrent runtime (package parallel), which stamps it at send as the
// simulator does, and for the wire transport (package transport), which
// reconstructs messages on the receiving node and must restore the sender the
// originating engine stamped; protocol code never calls it — the paper's
// messages carry no implicit sender.
func WithSender(m Message, from ref.Ref) Message {
	m.from = from
	return m
}

// Protocol is the per-process protocol instance: its variables and actions.
// Implementations must be deterministic (iterate reference sets in ref.Sort
// order) so that seeded runs are reproducible.
type Protocol interface {
	// Timeout executes the process's timeout action (guard true). It is
	// invoked only while the process is awake.
	Timeout(ctx Context)
	// Deliver executes the action requested by msg. Unknown labels must be
	// ignored (the model discards messages that name no action).
	Deliver(ctx Context, msg Message)
	// Refs enumerates every process reference currently stored in the
	// process's local variables (including special variables such as the
	// anchor). These are the explicit edges of PG.
	//
	// Order: the enumeration is a deterministic function of the stored
	// references — reference sets in ref.Sort order, special variables at
	// fixed positions — so an unchanged state yields an equal slice; both
	// engines' per-action accounting (graph.RefDiff.Resync) relies on that to
	// skip the diff with one equality scan.
	//
	// Read-only: the returned slice is never modified after it was handed
	// out, neither by the protocol (which may hand the same slice to every
	// caller until its stored references change, as core.Proc does) nor by
	// the caller; a protocol whose store changes builds a new slice, and a
	// caller that wants to sort or append copies first. Callers therefore
	// retain it instead of copying it: both engines keep the last slice a
	// process handed out as the base their degree ledger diffs the next one
	// against (the sequential world per process, the runtime per action),
	// and the runtime's frozen worlds keep it as the snapshot's store. A
	// protocol that writes a slice it handed out corrupts those degrees.
	Refs() []ref.Ref
}

// Context is the protocol's interface to the system during one atomic action
// execution.
type Context interface {
	// Self returns the executing process's own reference.
	Self() ref.Ref
	// Mode returns the read-only mode(u) of the executing process.
	Mode() Mode
	// Send executes v <- label(parameters): it asks the process referenced
	// by to for a remote action call. Sends to gone processes vanish.
	Send(to ref.Ref, msg Message)
	// Exit puts the process into the gone state (FDP only).
	Exit()
	// Sleep puts the process into the asleep state (FSP only). It takes
	// effect when the current action completes.
	Sleep()
	// OracleSays consults the world's configured oracle for the executing
	// process. With no oracle configured it returns false, so a protocol
	// guarded by an oracle never exits.
	OracleSays() bool
}

// Sleeper is implemented by protocols that support the FSP variant; the
// world uses it only in tests to distinguish variants.
type Sleeper interface {
	UsesSleep() bool
}

// UndeliverableHandler is implemented by protocols that want to be told,
// within the same atomic action, that a message they sent could not be
// delivered because its target is gone. This models the transport-level
// failure detection (e.g. a broken TCP connection) that Section 4's
// postprocess action presupposes: "postprocess is able to handle messages
// that cannot be delivered". The framework P′ uses it to unwedge pending
// verifications addressed to processes that exited with one remaining
// partner, and the Section 3 protocol uses it too: under guards weaker than
// SINGLE (e.g. EXITSAFE) a delegation through an anchor that exited would
// silently burn the last copy of the carried reference — the churn fuzzer
// found exactly that as a Lemma 2 violation (see DESIGN.md §6 and the
// dead-anchor-delegation fixture).
type UndeliverableHandler interface {
	Undeliverable(ctx Context, to ref.Ref, msg Message)
}
