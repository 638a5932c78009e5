package sim

import (
	"fmt"
	"slices"
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
// implement CloneableProtocol), channels and counters. The event hook is
// not copied. Initial components are shared (they are immutable after
// SealInitialState).
func (w *World) Clone() *World {
	c := NewWorld(w.oracle)
	c.seq = w.seq
	c.causal = w.causal
	c.curCID = w.curCID
	c.stats = w.stats
	c.sent = slices.Clone(w.sent)
	c.initialComponents = w.initialComponents
	c.procs = make([]*process, len(w.procs))
	for i, p := range w.procs {
		if p == nil {
			continue
		}
		cp, ok := p.proto.(CloneableProtocol)
		if !ok {
			panic(fmt.Sprintf("sim: protocol of %v is not cloneable", p.id))
		}
		np := &process{
			id:          p.id,
			mode:        p.mode,
			life:        p.life,
			proto:       cp.CloneProtocol(),
			lastTimeout: p.lastTimeout,
			clock:       p.clock,
		}
		np.ch = make([]Message, len(p.ch))
		copy(np.ch, p.ch)
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

// Fingerprint returns a canonical string identifying the protocol-relevant
// state: per process its lifecycle, stored references (via a
// FingerprintableProtocol if implemented, else Refs), and the multiset of
// channel messages. Two worlds with equal fingerprints behave identically
// under any scheduler, which is what lets the model checker prune.
func (w *World) Fingerprint() string {
	var b []byte
	for _, p := range w.procs {
		if p == nil {
			continue
		}
		b = append(b, fmt.Sprintf("%v/%d/%d{", p.id, p.mode, p.life)...)
		if fp, ok := p.proto.(FingerprintableProtocol); ok {
			b = append(b, fp.FingerprintState()...)
		} else {
			for _, r := range p.proto.Refs() {
				b = append(b, fmt.Sprintf("%v,", r)...)
			}
		}
		b = append(b, '|')
		// Channel contents as a sorted multiset (delivery order is up to
		// the scheduler, so order must not distinguish states).
		msgs := make([]string, 0, len(p.ch))
		for _, m := range p.ch {
			s := m.Label + "("
			for _, ri := range m.Refs {
				s += ri.String() + ","
			}
			s += ")"
			msgs = append(msgs, s)
		}
		sortStrings(msgs)
		for _, s := range msgs {
			b = append(b, s...)
			b = append(b, ';')
		}
		b = append(b, '}')
	}
	return string(b)
}

// FingerprintableProtocol lets protocol states contribute their full
// variable assignment (not just stored references) to the state
// fingerprint. The departure protocol implements it, distinguishing mode
// beliefs and the anchor variable.
type FingerprintableProtocol interface {
	FingerprintState() string
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
