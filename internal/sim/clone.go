package sim

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"fdp/internal/ref"
)

// CloneableProtocol is implemented by protocol states that can be deep-
// copied, enabling World.Clone and with it the exhaustive schedule
// exploration of the model checker (internal/check).
type CloneableProtocol interface {
	Protocol
	// CloneProtocol returns a deep copy sharing no mutable state.
	CloneProtocol() Protocol
}

// Clone deep-copies the world: processes, protocol states (which must
// implement CloneableProtocol), channels, counters and the processes hosted
// elsewhere. The process structs
// come from one slab and the channels from one backing array, each capped
// to its own length. The event hook is not copied. Initial components are
// shared (they are immutable after SealInitialState).
func (w *World) Clone() *World {
	c := NewWorld(w.oracle)
	c.seq = w.seq
	c.causal = w.causal
	c.curCID = w.curCID
	c.stats = w.stats
	c.sent = slices.Clone(w.sent)
	c.initialComponents = w.initialComponents
	c.elsewhere = slices.Clone(w.elsewhere)
	c.procs = make([]*process, len(w.procs))
	n, msgs := 0, 0
	for _, p := range w.procs {
		if p != nil {
			n++
			msgs += len(p.ch)
		}
	}
	slab, chans := make([]process, n), make([]Message, msgs)
	for i, p := range w.procs {
		if p == nil {
			continue
		}
		np := &slab[0]
		slab = slab[1:]
		*np = process{
			id:          p.id,
			mode:        p.mode,
			life:        p.life,
			proto:       p.cloneProtocol(),
			lastTimeout: p.lastTimeout,
			clock:       p.clock,
		}
		if k := len(p.ch); k > 0 {
			np.ch, chans = chans[:k:k], chans[k:]
			copy(np.ch, p.ch)
		}
		c.procs[i] = np
		if np.life == Awake {
			c.awake++
		} else if np.life == Asleep {
			c.asleep++
		}
	}
	// Neither the ledger nor the PG is copied; the clone seeds what its first
	// query needs.
	return c
}

// cloneProtocol returns a deep copy of p's protocol state. It panics if the
// protocol is not a CloneableProtocol.
func (p *process) cloneProtocol() Protocol {
	cp, ok := p.proto.(CloneableProtocol)
	if !ok {
		panic(fmt.Sprintf("sim: protocol of %v is not cloneable", p.id))
	}
	return cp.CloneProtocol()
}

// CloneLive is the per-process half of Clone, for a caller that builds its
// own copy of the world: it calls fn once per process that is not gone, in
// reference order, with its mode and life, a deep copy of its protocol state
// (which must implement CloneableProtocol) and its channel. fn may read ch
// and copy its messages, but must not retain or modify ch itself; the world
// is left as it was.
func (w *World) CloneLive(fn func(r ref.Ref, mode Mode, life Life, proto Protocol, ch []Message)) {
	for _, p := range w.procs {
		if p != nil && p.life != Gone {
			fn(p.id, p.mode, p.life, p.cloneProtocol(), p.ch)
		}
	}
}

// Fingerprint returns a canonical string identifying the protocol-relevant
// state: per process its lifecycle, stored references (via a
// FingerprintableProtocol if implemented, else Refs), and the multiset of
// channel messages. Two worlds with equal fingerprints behave identically
// under any scheduler, which is what lets the model checker prune.
func (w *World) Fingerprint() string { return string(w.AppendFingerprint(nil)) }

// AppendFingerprint appends Fingerprint's bytes to b.
func (w *World) AppendFingerprint(b []byte) []byte {
	spans := make([][2]int, 0, 8) // message extents, on the stack for small channels
	for _, p := range w.procs {
		if p == nil {
			continue
		}
		b = append(p.id.Append(b), '/')
		b = append(strconv.AppendUint(b, uint64(p.mode), 10), '/')
		b = append(strconv.AppendUint(b, uint64(p.life), 10), '{')
		if fp, ok := p.proto.(FingerprintableProtocol); ok {
			b = fp.AppendFingerprint(b)
		} else {
			for _, r := range p.proto.Refs() {
				b = append(r.Append(b), ',')
			}
		}
		b = append(b, '|')
		// Channel contents as a sorted multiset (delivery order is up to
		// the scheduler, so order must not distinguish states): rendered
		// past the end, sorted, copied back down.
		start := len(b)
		spans = spans[:0]
		for _, m := range p.ch {
			lo := len(b)
			b = append(append(b, m.Label...), '(')
			for _, ri := range m.Refs {
				b = append(append(append(ri.Ref.Append(b), ':'), ri.Mode.String()...), ',')
			}
			b = append(b, ')')
			spans = append(spans, [2]int{lo, len(b)})
		}
		slices.SortFunc(spans, func(x, y [2]int) int { return bytes.Compare(b[x[0]:x[1]], b[y[0]:y[1]]) })
		end := len(b)
		for _, sp := range spans {
			b = append(append(b, b[sp[0]:sp[1]]...), ';')
		}
		b = append(append(b[:start], b[end:]...), '}')
	}
	return b
}

// FingerprintableProtocol lets protocol states contribute their full
// variable assignment (not just stored references) to the state
// fingerprint. Its messages must carry no Payload, which no fingerprint
// reads. The departure protocol implements it.
type FingerprintableProtocol interface {
	// AppendFingerprint appends the variable assignment to b.
	AppendFingerprint(b []byte) []byte
}
