package overlay

import (
	"slices"

	"fdp/internal/ref"
)

// LabelIntro is the single message label of the clique protocol.
const LabelIntro = "ointro"

// CliqueTC stabilizes to the complete graph by transitive closure (in the
// spirit of Berns et al. [7]): every process periodically introduces all of
// its neighbors to each other and itself to all of them. Only Introduction
// and Fusion are used, so the protocol trivially belongs to 𝒫.
type CliqueTC struct {
	n ref.List
}

var _ Protocol = (*CliqueTC)(nil)
var _ TargetChecker = (*CliqueTC)(nil)
var _ Cloneable = (*CliqueTC)(nil)

// NewCliqueTC returns a clique-formation process.
func NewCliqueTC() *CliqueTC { return &CliqueTC{} }

// Name implements Protocol.
func (c *CliqueTC) Name() string { return "clique" }

// AddNeighbor seeds the initial neighborhood — scenario construction only.
//
//fdp:primitive init
func (c *CliqueTC) AddNeighbor(v ref.Ref) { c.n.Add(v) }

// Refs implements Protocol: the neighborhood in ref.Sort order, shared and
// read-only until it changes.
func (c *CliqueTC) Refs() []ref.Ref { return c.n.Refs() }

// CloneOverlay implements Cloneable.
//
//fdp:primitive init
func (c *CliqueTC) CloneOverlay() Protocol { return &CliqueTC{n: c.n.Clone()} }

// Timeout implements Protocol: all-pairs introduction plus
// self-introduction.
func (c *CliqueTC) Timeout(ctx Context) {
	u := ctx.Self()
	members := c.n.Refs()
	for _, v := range members {
		ctx.Send(v, LabelIntro, []ref.Ref{u}, nil) // ♦ self-introduction
		for _, w := range members {
			if w != v {
				ctx.Send(v, LabelIntro, []ref.Ref{w}, nil) // ♦
			}
		}
	}
}

// Deliver implements Protocol.
func (c *CliqueTC) Deliver(ctx Context, label string, refs []ref.Ref, payload any) {
	if label != LabelIntro || len(refs) != 1 {
		return
	}
	if refs[0] != ctx.Self() {
		c.n.Add(refs[0]) // ♠ fusion by set semantics
	}
}

// Reintegrate implements Protocol.
//
//fdp:primitive fusion
func (c *CliqueTC) Reintegrate(ctx Context, r ref.Ref) {
	if r != ctx.Self() {
		c.n.Add(r)
	}
}

// InTarget implements TargetChecker: every member stores exactly all other
// members.
func (c *CliqueTC) InTarget(members []ref.Ref, lookup func(ref.Ref) Protocol) bool {
	all := slices.Clone(members)
	ref.Sort(all)
	for i, m := range all {
		p, ok := lookup(m).(*CliqueTC)
		if !ok || !slices.Equal(p.n.Refs(), slices.Delete(slices.Clone(all), i, i+1)) {
			return false
		}
	}
	return true
}

// Exclude implements Protocol: remove every stored occurrence of r.
//
//fdp:primitive reversal
func (c *CliqueTC) Exclude(r ref.Ref) { c.n.Remove(r) }
