package trace

import (
	"fmt"
	"strings"
)

// Divergence pinpoints the first event at which two journals disagree,
// after aligning them by causal ID.
type Divergence struct {
	// CID is the causal identity at which the journals part ways.
	CID uint64
	// A and B are the records on each side; nil when the event is missing
	// from that side entirely.
	A, B *Record
	// AIndex and BIndex are the records' positions in their journals (-1
	// when missing).
	AIndex, BIndex int
	// Field names the first differing field when both sides have the event
	// ("" when one side is missing).
	Field string
}

// String renders a one-glance report of the divergence.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "first divergence at cid=%d", d.CID)
	switch {
	case d.B == nil:
		fmt.Fprintf(&b, ": only in A (record %d): %s", d.AIndex, RecordLine(*d.A))
	case d.A == nil:
		fmt.Fprintf(&b, ": only in B (record %d): %s", d.BIndex, RecordLine(*d.B))
	default:
		fmt.Fprintf(&b, ", field %q:\n  A record %d: %s\n  B record %d: %s",
			d.Field, d.AIndex, RecordLine(*d.A), d.BIndex, RecordLine(*d.B))
	}
	return b.String()
}

// RecordLine renders one record on one line: the form divergence reports,
// span trees and diffval's disagreement dumps print.
func RecordLine(r Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "step=%d %s %s", r.Step, r.Kind, r.Proc)
	if r.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", r.Peer)
	}
	if r.Label != "" {
		fmt.Fprintf(&b, " label=%s", r.Label)
	}
	fmt.Fprintf(&b, " cid=%d", r.CID)
	if r.Parent != 0 {
		fmt.Fprintf(&b, " parent=%d", r.Parent)
	}
	if r.MsgID != 0 {
		fmt.Fprintf(&b, " msg=%d", r.MsgID)
	}
	fmt.Fprintf(&b, " clock=%d", r.Clock)
	return b.String()
}

// Diff aligns two journals by causal ID and returns the first diverging
// event, or nil if they agree causally. Two aligned records diverge when a
// causal field differs: Kind, Proc, Peer, Label, Parent or MsgID. Schedule-
// dependent coordinates (Step, Clock, MsgSeq, Age, Depth) are deliberately
// not compared, so a sequential journal and a concurrent one — or two
// concurrent runs — can be diffed for causal disagreement without drowning
// in timing noise. For the stricter byte-level contract use DiffStrict.
//
// "First" means: the earliest record of A (in journal order) that is
// missing from B or disagrees with its B counterpart; if A is entirely
// contained in B, the earliest record of B that A lacks.
func Diff(a, b []Record) *Divergence {
	return diff(a, b, causalFieldDiff)
}

// DiffStrict aligns by causal ID like Diff but compares every field,
// including Step and Clock. A nil result means the journals are record-for-
// record identical — the replay determinism contract.
func DiffStrict(a, b []Record) *Divergence {
	return diff(a, b, strictFieldDiff)
}

func diff(a, b []Record, fieldDiff func(x, y *Record) string) *Divergence {
	byCID := make(map[uint64]int, len(b))
	for i := range b {
		if _, dup := byCID[b[i].CID]; !dup {
			byCID[b[i].CID] = i
		}
	}
	matched := make([]bool, len(b))
	for i := range a {
		j, ok := byCID[a[i].CID]
		if !ok {
			return &Divergence{CID: a[i].CID, A: &a[i], AIndex: i, BIndex: -1}
		}
		matched[j] = true
		if f := fieldDiff(&a[i], &b[j]); f != "" {
			return &Divergence{CID: a[i].CID, A: &a[i], B: &b[j], AIndex: i, BIndex: j, Field: f}
		}
	}
	for j := range b {
		if !matched[j] {
			return &Divergence{CID: b[j].CID, B: &b[j], AIndex: -1, BIndex: j}
		}
	}
	return nil
}

// causalFieldDiff names the first differing schedule-independent field.
func causalFieldDiff(x, y *Record) string {
	switch {
	case x.Kind != y.Kind:
		return "kind"
	case x.Proc != y.Proc:
		return "proc"
	case x.Peer != y.Peer:
		return "peer"
	case x.Label != y.Label:
		return "label"
	case x.Parent != y.Parent:
		return "parent"
	case x.MsgID != y.MsgID:
		return "msg"
	}
	return ""
}

// strictFieldDiff names the first differing field of any kind.
func strictFieldDiff(x, y *Record) string {
	if f := causalFieldDiff(x, y); f != "" {
		return f
	}
	switch {
	case x.Step != y.Step:
		return "step"
	case x.MsgSeq != y.MsgSeq:
		return "mseq"
	case x.Clock != y.Clock:
		return "clock"
	case x.Age != y.Age:
		return "age"
	case x.Depth != y.Depth:
		return "depth"
	case x.Note != y.Note:
		return "note"
	}
	return ""
}
