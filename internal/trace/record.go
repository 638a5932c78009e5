// Package trace is the causal tracing and journaling subsystem shared by
// the sequential simulator and the concurrent runtime (DESIGN.md §11).
//
// Both engines stamp every event with a causal identity (Event.CID), a
// causal parent (Event.Parent) and a Lamport clock (Event.Clock); this
// package turns those streams into durable, analyzable artifacts:
//
//   - an append-only JSONL journal (Writer/ReadJournal) whose header
//     records the scenario, so a recorded sequential run can be re-driven
//     deterministically (Replay) and two runs can be aligned by causal ID
//     (Diff) to the first diverging event;
//   - per-leaver departure spans (BuildSpans): timeout fired → each
//     forward/delegation hop → exit granted — the causal story of one
//     departure;
//   - Chrome trace-event JSON (WriteChrome), loadable in Perfetto or
//     chrome://tracing.
//
// The package obeys the repository's determinism discipline (fdplint
// detiter): no wall-clock reads, no map-iteration-order dependence — a
// journal written twice from the same schedule is byte-identical.
package trace

import (
	"fmt"
	"strconv"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Version is the journal format version written into headers.
const Version = 1

// Record is one journal line: a sim.Event rendered with stable, engine-
// independent field names. The zero values of optional fields are omitted
// from the JSON so journals stay compact.
type Record struct {
	// Step is the engine's logical time at emission: the executed-action
	// count (sequential: exact; concurrent: approximate, for ordering a
	// dump only).
	Step int `json:"step"`
	// Kind is the event kind name (sim.EventKind.String).
	Kind string `json:"kind"`
	// Proc is the acting process ("p3").
	Proc string `json:"proc"`
	// Peer is the message target / source where applicable.
	Peer string `json:"peer,omitempty"`
	// Label is the message label where applicable.
	Label string `json:"label,omitempty"`
	// CID is the event's unique causal identity.
	CID uint64 `json:"cid"`
	// Parent is the CID of the causal parent event (see sim.Event.Parent).
	Parent uint64 `json:"parent,omitempty"`
	// MsgID is the message's causal identity on send/deliver/drop.
	MsgID uint64 `json:"msg,omitempty"`
	// MsgSeq is the message's arrival sequence number — the identity the
	// replay driver re-resolves deliveries by.
	MsgSeq uint64 `json:"mseq,omitempty"`
	// Clock is the acting process's Lamport clock at emission.
	Clock uint64 `json:"clock"`
	// Age is, on deliveries, the steps the message spent enqueued.
	Age int `json:"age,omitempty"`
	// Depth is the channel length after the operation.
	Depth int `json:"depth,omitempty"`
	// Note carries sim.Event.Message free-form detail.
	Note string `json:"note,omitempty"`
}

// Header is the first line of every journal.
type Header struct {
	// Version is the journal format version (see Version).
	Version int `json:"v"`
	// Engine identifies the producer: "sim" (deterministically replayable),
	// "runtime" (one concurrent schedule; diffable, not replayable) or
	// "node" (one node's slice of a multi-node run; joinable with its
	// siblings, see Join).
	Engine string `json:"engine"`
	// Scenario is the recorded run's construction recipe.
	Scenario Scenario `json:"scenario"`
	// Node and Nodes identify the writer within a multi-node run: Node is
	// this journal's 0-based node id, Nodes the total node count. Nodes is
	// zero for single-engine journals; Node alone is ambiguous (0 is a
	// valid id and the JSON zero), so Nodes > 0 is the multi-node marker.
	Node  int `json:"node,omitempty"`
	Nodes int `json:"nodes,omitempty"`
}

// Engine names written into journal headers.
const (
	// EngineSim marks a sequential-simulator journal.
	EngineSim = "sim"
	// EngineRuntime marks a concurrent-runtime journal.
	EngineRuntime = "runtime"
	// EngineNode marks one node's journal from a multi-node wire-transport
	// run (cmd/fdpnode).
	EngineNode = "node"
)

// NodeCausalBase returns the causal-ID namespace base for node i of a
// multi-node run. Each node seeds its engine's causal counter to this base,
// so node i mints CIDs in ((i+1)<<40, (i+2)<<40) and CIDs from different
// nodes never collide when journals are joined. Builder-assigned
// initial-message CIDs (small integers, one per initial in-flight message)
// sit below every node's namespace; joins treat message IDs under
// NodeCausalBase(0) as owner-injected and exempt from send-record matching.
func NodeCausalBase(i int) uint64 { return uint64(i+1) << 40 }

// FromEvent renders one engine event as a journal record.
func FromEvent(e sim.Event) Record {
	return Record{
		Step:   e.Step,
		Kind:   e.Kind.String(),
		Proc:   refString(e.Proc),
		Peer:   refString(e.Peer),
		Label:  e.Label,
		CID:    e.CID,
		Parent: e.Parent,
		MsgID:  e.MsgID,
		MsgSeq: e.MsgSeq,
		Clock:  e.Clock,
		Age:    e.Age,
		Depth:  e.Depth,
		Note:   e.Message,
	}
}

// FromEvents renders a captured event slice (e.g. a Flight ring's contents)
// as journal records.
func FromEvents(events []sim.Event) []Record {
	out := make([]Record, len(events))
	for i, e := range events {
		out[i] = FromEvent(e)
	}
	return out
}

// refString renders a reference for the journal ("" for the nil reference,
// so omitempty drops absent peers).
func refString(r ref.Ref) string { return string(appendRefName(nil, r)) }

// parseRef is the inverse of refString; the empty string and "⊥" map to
// the nil reference. Names come from journals, which are outside input:
// only the canonical spelling refString produces is accepted ("p" and a
// positive int32 in decimal, no sign, no leading zero, nothing after it), so
// no two names alias one process and no index wraps in ref.ByIndex.
func parseRef(s string) (ref.Ref, error) {
	if s == "" || s == "⊥" {
		return ref.Nil, nil
	}
	if len(s) >= 2 && s[0] == 'p' && s[1] >= '1' && s[1] <= '9' {
		if idx, err := strconv.ParseInt(s[1:], 10, 32); err == nil {
			return ref.ByIndex(int(idx) - 1), nil
		}
	}
	return ref.Nil, fmt.Errorf("trace: bad process name %q", s)
}

// kindByName maps event kind names back to sim kinds (inverse of
// sim.EventKind.String).
func kindByName(name string) (sim.EventKind, bool) {
	for k := 0; k < sim.NumEventKinds; k++ {
		if sim.EventKind(k).String() == name {
			return sim.EventKind(k), true
		}
	}
	return 0, false
}
