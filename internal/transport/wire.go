package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Frame kinds. A frame on the wire is a big-endian uint32 length (of
// everything after itself) followed by one kind byte, the sender's node id
// as a uvarint, and the kind-specific body.
const (
	frameData    byte = 0 // body: encoded (target, message)
	frameBounce  byte = 1 // body: encoded (target, message) being returned
	frameControl byte = 2 // body: opaque node-layer payload
)

// maxFrame bounds a single frame. The largest legitimate frames are initial
// present/forward messages (one RefInfo) plus label and causal metadata —
// well under a kilobyte; a megabyte guard means a corrupt or adversarial
// length prefix cannot make a reader allocate unbounded memory.
const maxFrame = 1 << 20

// errMalformed marks a frame refused for its content, as opposed to the I/O
// errors that are a link's ordinary death.
var errMalformed = errors.New("transport: malformed frame")

// encodeFrame renders a complete frame: length prefix, kind, sender node,
// body.
func encodeFrame(kind byte, from NodeID, body []byte) []byte {
	var fromBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(fromBuf[:], uint64(from))
	total := 1 + n + len(body)
	out := make([]byte, 4, 4+total)
	binary.BigEndian.PutUint32(out, uint32(total))
	out = append(out, kind)
	out = append(out, fromBuf[:n]...)
	return append(out, body...)
}

// readFrame reads one complete frame, tolerating arbitrary segmentation of
// the underlying stream (io.ReadFull reassembles split writes and partial
// reads). It returns the kind, the sending node and the body.
func readFrame(r io.Reader) (byte, NodeID, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 2 || total > maxFrame {
		return 0, 0, nil, fmt.Errorf("%w: length %d out of range", errMalformed, total)
	}
	raw := make([]byte, total)
	if _, err := io.ReadFull(r, raw); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a torn frame, not a clean close
		}
		return 0, 0, nil, err
	}
	kind := raw[0]
	// A sender id is a small non-negative node index; anything wider would
	// wrap into a negative NodeID, and only the transport itself may speak
	// as LocalBounce.
	from, n := binary.Uvarint(raw[1:])
	if n <= 0 || from > math.MaxInt32 {
		return 0, 0, nil, fmt.Errorf("%w: bad sender", errMalformed)
	}
	return kind, NodeID(from), raw[1+n:], nil
}

// readFrameBytes parses one frame from an in-memory buffer (loopback and
// tests).
func readFrameBytes(b []byte) (byte, NodeID, []byte, error) {
	return readFrame(bytes.NewReader(b))
}

// Payload tags. The model allows reference-free extra parameters of any
// type; on the wire the codec supports the types the repository's protocols
// actually send. Anything else refuses to encode — the send then takes the
// model's drop path, which is loud in tests rather than silently wrong.
const (
	payNil    byte = 0
	payString byte = 1
	payInt64  byte = 2
	payInt    byte = 3
	payBool   byte = 4
	payBytes  byte = 5
)

// encodeDataBody seals (to, msg) as a data/bounce frame body. References
// travel as their ref.Wire identities — the codec is the only code outside
// package ref that sees them, and only between identically built spaces
// (every node rebuilds the same scenario from the same seed).
func encodeDataBody(to ref.Ref, msg sim.Message) ([]byte, error) {
	body := make([]byte, 0, 64)
	body = putUvarint(body, uint64(ref.Wire(to)))
	body = putUvarint(body, uint64(ref.Wire(msg.From())))
	body = putUvarint(body, uint64(len(msg.Label)))
	body = append(body, msg.Label...)
	body = putUvarint(body, uint64(len(msg.Refs)))
	for _, ri := range msg.Refs {
		body = putUvarint(body, uint64(ref.Wire(ri.Ref)))
		body = append(body, byte(ri.Mode))
	}
	body = putUvarint(body, msg.CID())
	body = putUvarint(body, msg.CausalParent())
	body = putUvarint(body, msg.SendClock())
	switch p := msg.Payload.(type) {
	case nil:
		body = append(body, payNil)
	case string:
		body = append(body, payString)
		body = putUvarint(body, uint64(len(p)))
		body = append(body, p...)
	case int64:
		body = append(body, payInt64)
		body = putUvarint(body, uint64(p))
	case int:
		body = append(body, payInt)
		body = putUvarint(body, uint64(p))
	case bool:
		body = append(body, payBool)
		if p {
			body = append(body, 1)
		} else {
			body = append(body, 0)
		}
	case []byte:
		body = append(body, payBytes)
		body = putUvarint(body, uint64(len(p)))
		body = append(body, p...)
	default:
		return nil, fmt.Errorf("transport: payload type %T not wire-encodable", msg.Payload)
	}
	if len(body) > maxFrame-16 {
		return nil, fmt.Errorf("transport: message body %d bytes exceeds frame bound", len(body))
	}
	return body, nil
}

// decodeDataBody is the inverse of encodeDataBody: it rebuilds the target
// reference and the message, restoring sender and causal metadata.
func decodeDataBody(body []byte) (ref.Ref, sim.Message, error) {
	d := &decoder{buf: body}
	to := ref.FromWire(uint32(d.uvarint()))
	fromProc := ref.FromWire(uint32(d.uvarint()))
	label := string(d.bytes(int(d.uvarint())))
	nrefs := int(d.uvarint())
	if nrefs < 0 || nrefs > len(body) { // each RefInfo takes ≥2 bytes; a count past 2^63 wraps negative
		return ref.Nil, sim.Message{}, fmt.Errorf("transport: ref count %d exceeds body", nrefs)
	}
	refs := make([]sim.RefInfo, 0, nrefs)
	for i := 0; i < nrefs; i++ {
		r := ref.FromWire(uint32(d.uvarint()))
		refs = append(refs, sim.RefInfo{Ref: r, Mode: sim.Mode(d.byte())})
	}
	cid, parent, lclock := d.uvarint(), d.uvarint(), d.uvarint()
	msg := sim.NewMessage(label, refs...)
	switch tag := d.byte(); tag {
	case payNil:
	case payString:
		msg.Payload = string(d.bytes(int(d.uvarint())))
	case payInt64:
		msg.Payload = int64(d.uvarint())
	case payInt:
		msg.Payload = int(d.uvarint())
	case payBool:
		msg.Payload = d.byte() != 0
	case payBytes:
		msg.Payload = append([]byte(nil), d.bytes(int(d.uvarint()))...)
	default:
		if d.err == nil {
			d.err = fmt.Errorf("transport: unknown payload tag %d", tag)
		}
	}
	if d.err == nil && len(d.buf) != d.off {
		d.err = fmt.Errorf("transport: %d trailing bytes after message", len(d.buf)-d.off)
	}
	if d.err != nil {
		return ref.Nil, sim.Message{}, d.err
	}
	msg = sim.StampCausal(msg, cid, parent, lclock)
	msg = sim.WithSender(msg, fromProc)
	return to, msg, nil
}

func putUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// decoder reads the body sequentially with a sticky error, so decode code
// stays linear instead of threading an error through every field.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("transport: truncated frame body at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = fmt.Errorf("transport: truncated frame body at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	// n is int(uvarint) of a hostile length: compare against what is left,
	// never d.off+n, which a length near 2^63 overflows negative.
	if n < 0 || n > len(d.buf)-d.off {
		d.err = fmt.Errorf("transport: truncated frame body at offset %d", d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
