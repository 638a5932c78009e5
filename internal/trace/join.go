package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
)

// Joined is the result of merging the per-node journals of one multi-node
// run (engine "node") into a single causally ordered stream, or of ordering
// one runtime journal the same way.
type Joined struct {
	// Scenario is the shared construction recipe all nodes agreed on.
	Scenario Scenario
	// Nodes is the run's node count.
	Nodes int
	// Records holds every node's records merged and ordered by (Clock,
	// CID). Lamport clocks respect happens-before, so the merged order is
	// a legal serialization of the causal partial order; the CID tiebreak
	// makes it total and deterministic.
	Records []Record
	// Sends and Delivers count the matched cross-checkable records.
	Sends, Delivers int
	// Duplicates counts redundant deliveries — the same message delivered
	// to the same process more than once. The wire transport can duplicate
	// a frame when a redial retransmits one the peer had already processed,
	// so duplicates are reported but are not Problems.
	Duplicates int
	// Problems lists causal-invariant violations: CID collisions,
	// deliveries without a matching send, mismatched send/deliver
	// endpoints or labels, and non-increasing Lamport clocks across a
	// send→deliver edge. Empty means the journals join cleanly.
	Problems []string
}

// Join merges per-node journals from one multi-node run and cross-checks
// the causal invariants that must hold across node boundaries. The headers
// must all carry engine "node", identical scenarios, and node ids forming a
// permutation of 0..n-1; anything else is a hard error (the journals are
// not slices of one run). A lone journal of engine "runtime" is a whole run
// and is checked the same way. Invariant violations inside a well-formed set
// are reported in Joined.Problems, not as an error.
//
// Builder-assigned initial in-flight messages are delivered without a send
// event, so they are exempt from send-record matching: on a mesh, message
// identities below NodeCausalBase(0) (each owner node injects its own; a
// second node delivering one would be a CID collision on the deliver events'
// own identities, still caught); on the runtime, identities below its lowest
// sent one (it mints every identity past the initial messages').
func Join(hdrs []Header, parts [][]Record) (*Joined, error) {
	if len(hdrs) == 0 || len(hdrs) != len(parts) {
		return nil, fmt.Errorf("trace: join needs matching headers and record sets, got %d/%d", len(hdrs), len(parts))
	}
	initial := NodeCausalBase(0)
	if len(hdrs) == 1 && hdrs[0].Engine == EngineRuntime {
		initial = lowestSend(parts[0])
	} else if err := checkNodeHeaders(hdrs); err != nil {
		return nil, err
	}

	j := &Joined{Scenario: hdrs[0].Scenario, Nodes: len(hdrs)}
	total := 0
	for _, rs := range parts {
		total += len(rs)
	}
	j.Records = make([]Record, 0, total)

	// Pass 1: merge, check event-CID uniqueness, index sends.
	cidOwner := make(map[uint64]int, total)
	sends := make(map[uint64]Record)
	for node, rs := range parts {
		for _, r := range rs {
			if prev, dup := cidOwner[r.CID]; dup {
				j.problem("cid %d appears in node %d and node %d journals", r.CID, prev, node)
			} else {
				cidOwner[r.CID] = node
			}
			if r.Kind == "send" {
				j.Sends++
				sends[r.MsgID] = r
			}
			j.Records = append(j.Records, r)
		}
	}

	// Pass 2: every engine-stamped delivery must causally follow a matching
	// send, wherever it was recorded.
	delivered := make(map[[2]string]int) // (msgID, receiver) → count
	for node, rs := range parts {
		for _, r := range rs {
			if r.Kind != "deliver" {
				continue
			}
			j.Delivers++
			key := [2]string{fmt.Sprint(r.MsgID), r.Proc}
			delivered[key]++
			if delivered[key] > 1 {
				j.Duplicates++
			}
			if r.MsgID < initial {
				continue // builder-injected initial message: no send event exists
			}
			s, ok := sends[r.MsgID]
			if !ok {
				j.problem("node %d delivered msg %d to %s with no send record", node, r.MsgID, r.Proc)
				continue
			}
			if s.Label != r.Label {
				j.problem("msg %d label mismatch: sent %q, delivered %q", r.MsgID, s.Label, r.Label)
			}
			if s.Peer != r.Proc {
				j.problem("msg %d sent to %s but delivered at %s", r.MsgID, s.Peer, r.Proc)
			}
			if s.Proc != r.Peer {
				j.problem("msg %d sent by %s but delivery names sender %s", r.MsgID, s.Proc, r.Peer)
			}
			if r.Clock <= s.Clock {
				j.problem("msg %d delivered at clock %d, not after send clock %d", r.MsgID, r.Clock, s.Clock)
			}
		}
	}

	SortCausal(j.Records)
	return j, nil
}

// SortCausal puts records in causal order: by Lamport clock, then causal
// identity, records the two do not order keeping their relative order. A
// record follows its causes, so this is the order Join gives a runtime
// journal, whose lanes a Writer interleaves by buffer.
func SortCausal(recs []Record) {
	slices.SortStableFunc(recs, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.Clock, b.Clock), cmp.Compare(a.CID, b.CID))
	})
}

// checkNodeHeaders holds a set of headers to the shape of one multi-node
// run's journals.
func checkNodeHeaders(hdrs []Header) error {
	scen, err := json.Marshal(hdrs[0].Scenario)
	if err != nil {
		return err
	}
	seenNode := make([]bool, len(hdrs))
	for i, h := range hdrs {
		if h.Engine != EngineNode {
			return fmt.Errorf("trace: journal %d has engine %q, want %q", i, h.Engine, EngineNode)
		}
		if h.Nodes != len(hdrs) {
			return fmt.Errorf("trace: journal %d expects %d nodes, %d journals given", i, h.Nodes, len(hdrs))
		}
		if h.Node < 0 || h.Node >= len(hdrs) || seenNode[h.Node] {
			return fmt.Errorf("trace: journal %d has bad or duplicate node id %d", i, h.Node)
		}
		seenNode[h.Node] = true
		s, err := json.Marshal(h.Scenario)
		if err != nil {
			return err
		}
		if string(s) != string(scen) {
			return fmt.Errorf("trace: journal %d scenario differs from journal 0", i)
		}
	}
	return nil
}

// lowestSend returns the lowest message identity recs send (the largest
// identity if they send nothing).
func lowestSend(recs []Record) uint64 {
	low := ^uint64(0)
	for _, r := range recs {
		if r.Kind == "send" && r.MsgID < low {
			low = r.MsgID
		}
	}
	return low
}

const maxProblems = 200

func (j *Joined) problem(format string, args ...any) {
	if len(j.Problems) == maxProblems {
		j.Problems = append(j.Problems, "further problems suppressed")
	}
	if len(j.Problems) > maxProblems {
		return
	}
	j.Problems = append(j.Problems, fmt.Sprintf(format, args...))
}
