package trace

import (
	"encoding/json"
	"strconv"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// The journal's record lines are rendered by hand: strconv.Append* into a
// caller-supplied buffer, Record's fields in declaration order under its
// omitempty rules. The output is, byte for byte, json.Marshal(Record) plus
// a newline — a contract the differential and fuzz tests hold against
// encoding/json, because replay goldens, fuzz fixtures and Join compare
// journals as bytes.

// appendEvent appends e's journal line to b without building a Record or a
// process-name string: appendEvent(nil, e) == json.Marshal(FromEvent(*e))
// + "\n".
func appendEvent(b []byte, e *sim.Event) []byte {
	b = appendHead(b, e.Step, e.Kind.String())
	b = append(b, `,"proc":"`...)
	b = appendRefName(b, e.Proc)
	b = append(b, '"')
	if !e.Peer.IsNil() {
		b = append(b, `,"peer":"`...)
		b = appendRefName(b, e.Peer)
		b = append(b, '"')
	}
	return appendTail(b, e.Label, e.CID, e.Parent, e.MsgID, e.MsgSeq, e.Clock, e.Age, e.Depth, e.Message)
}

// appendRecord appends rec's journal line to b: json.Marshal(*rec) + "\n".
func appendRecord(b []byte, rec *Record) []byte {
	b = appendHead(b, rec.Step, rec.Kind)
	b = appendString(append(b, `,"proc":`...), rec.Proc)
	if rec.Peer != "" {
		b = appendString(append(b, `,"peer":`...), rec.Peer)
	}
	return appendTail(b, rec.Label, rec.CID, rec.Parent, rec.MsgID, rec.MsgSeq, rec.Clock, rec.Age, rec.Depth, rec.Note)
}

// appendHead opens the line with the fields before the process names.
func appendHead(b []byte, step int, kind string) []byte {
	b = strconv.AppendInt(append(b, `{"step":`...), int64(step), 10)
	return appendString(append(b, `,"kind":`...), kind)
}

// appendTail renders the fields after the process names and closes the line.
func appendTail(b []byte, label string, cid, parent, msg, mseq, clock uint64, age, depth int, note string) []byte {
	if label != "" {
		b = appendString(append(b, `,"label":`...), label)
	}
	b = strconv.AppendUint(append(b, `,"cid":`...), cid, 10)
	if parent != 0 {
		b = strconv.AppendUint(append(b, `,"parent":`...), parent, 10)
	}
	if msg != 0 {
		b = strconv.AppendUint(append(b, `,"msg":`...), msg, 10)
	}
	if mseq != 0 {
		b = strconv.AppendUint(append(b, `,"mseq":`...), mseq, 10)
	}
	b = strconv.AppendUint(append(b, `,"clock":`...), clock, 10)
	if age != 0 {
		b = strconv.AppendInt(append(b, `,"age":`...), int64(age), 10)
	}
	if depth != 0 {
		b = strconv.AppendInt(append(b, `,"depth":`...), int64(depth), 10)
	}
	if note != "" {
		b = appendString(append(b, `,"note":`...), note)
	}
	return append(b, '}', '\n')
}

// appendRefName appends r's journal name ("p3"; nothing for the nil
// reference, so omitempty drops absent peers).
func appendRefName(b []byte, r ref.Ref) []byte {
	if r.IsNil() {
		return b
	}
	return strconv.AppendInt(append(b, 'p'), int64(ref.Index(r))+1, 10)
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json copies through unchanged is copied raw; a string holding
// anything else — a control byte, DEL, non-ASCII, or one of the five bytes
// json escapes (" \ < > &) — goes to encoding/json itself, so escaping,
// U+2028/U+2029 and invalid-UTF-8 replacement cannot drift from it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
