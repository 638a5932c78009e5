package core

import (
	"slices"
	"strconv"

	"fdp/internal/sim"
)

// CloneProtocol implements sim.CloneableProtocol, enabling exhaustive
// schedule exploration of worlds running the departure protocol. The clone
// gets storage of its own; the self lists are immutable and stay shared.
//
//fdp:primitive init
func (p *Proc) CloneProtocol() sim.Protocol {
	c := *p
	c.refs = slices.Clone(p.refs)
	c.beliefs = slices.Clone(p.beliefs)
	c.handedOut = false
	return &c
}

// AppendFingerprint implements sim.FingerprintableProtocol: it appends the
// full variable assignment — variant, anchor with belief, re-verification
// pacing, and neighborhood with beliefs.
func (p *Proc) AppendFingerprint(b []byte) []byte {
	b = strconv.AppendUint(append(b, 'v'), uint64(p.variant), 10)
	b = append(p.Anchor().Append(append(b, ";a"...)), ':')
	b = strconv.AppendUint(b, uint64(p.anchorMode), 10)
	b = strconv.AppendInt(append(b, ";g"...), int64(p.verifyGap), 10)
	b = append(strconv.AppendInt(append(b, '.'), int64(p.sinceVerify), 10), ';')
	for i, m := range p.beliefs {
		b = append(strconv.AppendUint(append(p.refs[i].Append(b), ':'), uint64(m), 10), ',')
	}
	return b
}

var (
	_ sim.CloneableProtocol       = (*Proc)(nil)
	_ sim.FingerprintableProtocol = (*Proc)(nil)
)
