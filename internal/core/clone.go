package core

import (
	"fmt"
	"slices"
	"strings"

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

// FingerprintState implements sim.FingerprintableProtocol: the full
// variable assignment — neighborhood with beliefs, anchor with belief, and
// the variant.
func (p *Proc) FingerprintState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d;a%v:%d;g%d.%d;", p.variant, p.Anchor(), p.anchorMode, p.verifyGap, p.sinceVerify)
	for i, m := range p.beliefs {
		fmt.Fprintf(&b, "%v:%d,", p.refs[i], m)
	}
	return b.String()
}

var (
	_ sim.CloneableProtocol       = (*Proc)(nil)
	_ sim.FingerprintableProtocol = (*Proc)(nil)
)
