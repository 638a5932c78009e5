package core_test

import (
	"fmt"
	"strings"

	"fdp/internal/core"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// mapProc is the reference model core.Proc is held to: Algorithms 1–3 over
// the obvious representation — u.N as a map from reference to belief, the
// anchor and its belief as two variables — sharing no code with Proc's
// sorted-slice storage. It enumerates by sorting its keys from scratch at
// every call and builds a fresh parameter list for every message.
type mapProc struct {
	variant     core.Variant
	n           map[ref.Ref]sim.Mode
	anchor      ref.Ref
	anchorMode  sim.Mode
	verifyGap   int
	sinceVerify int
}

func newMapProc(v core.Variant) *mapProc {
	return &mapProc{variant: v, n: make(map[ref.Ref]sim.Mode)}
}

func (m *mapProc) clone() *mapProc {
	c := *m
	c.n = make(map[ref.Ref]sim.Mode, len(m.n))
	for r, b := range m.n {
		c.n[r] = b
	}
	return &c
}

func (m *mapProc) setNeighbor(v ref.Ref, belief sim.Mode) {
	if !v.IsNil() {
		m.n[v] = belief
	}
}

func (m *mapProc) setAnchor(v ref.Ref, belief sim.Mode) sim.RefInfo {
	old := sim.RefInfo{Ref: m.anchor, Mode: m.anchorMode}
	m.anchor, m.anchorMode = v, belief
	m.verifyGap, m.sinceVerify = 0, 0
	return old
}

func (m *mapProc) neighborRefs() []ref.Ref {
	out := make([]ref.Ref, 0, len(m.n))
	for r := range m.n {
		out = append(out, r)
	}
	ref.Sort(out)
	return out
}

func (m *mapProc) refs() []ref.Ref {
	out := m.neighborRefs()
	if !m.anchor.IsNil() {
		out = append(out, m.anchor)
	}
	return out
}

func (m *mapProc) beliefs() []sim.RefInfo {
	var out []sim.RefInfo
	for _, r := range m.neighborRefs() {
		out = append(out, sim.RefInfo{Ref: r, Mode: m.n[r]})
	}
	if !m.anchor.IsNil() {
		out = append(out, sim.RefInfo{Ref: m.anchor, Mode: m.anchorMode})
	}
	return out
}

// fingerprint renders the state as Proc.AppendFingerprint appends it.
func (m *mapProc) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d;a%v:%d;g%d.%d;", m.variant, m.anchor, m.anchorMode, m.verifyGap, m.sinceVerify)
	for _, r := range m.neighborRefs() {
		fmt.Fprintf(&b, "%v:%d,", r, m.n[r])
	}
	return b.String()
}

func msg1(label string, v ref.Ref, belief sim.Mode) sim.Message {
	return sim.NewMessage(label, sim.RefInfo{Ref: v, Mode: belief})
}

func (m *mapProc) timeout(ctx sim.Context) {
	u := ctx.Self()
	if ctx.Mode() == sim.Leaving && !m.anchor.IsNil() && m.anchorMode == sim.Leaving {
		ctx.Send(u, msg1(core.LabelPresent, m.anchor, m.anchorMode))
		m.anchor = ref.Nil
	}
	if ctx.Mode() == sim.Leaving {
		if len(m.n) == 0 {
			if m.variant == core.VariantFDP && ctx.OracleSays() {
				ctx.Exit()
				return
			}
			if !m.anchor.IsNil() {
				if m.sinceVerify >= m.verifyGap {
					ctx.Send(m.anchor, msg1(core.LabelPresent, u, sim.Leaving))
					m.sinceVerify = 0
					if m.verifyGap == 0 {
						m.verifyGap = 1
					} else if m.verifyGap < 4096 {
						m.verifyGap *= 2
					}
				} else {
					m.sinceVerify++
				}
			}
			if m.variant == core.VariantFSP {
				ctx.Sleep()
			}
			return
		}
		for _, v := range m.neighborRefs() {
			ctx.Send(u, msg1(core.LabelForward, v, m.n[v]))
			delete(m.n, v)
		}
		if m.variant == core.VariantFSP {
			ctx.Sleep()
		}
		return
	}
	if !m.anchor.IsNil() {
		if m.anchor != u {
			m.n[m.anchor] = m.anchorMode
		}
		m.anchor = ref.Nil
	}
	for _, v := range m.neighborRefs() {
		if m.n[v] == sim.Leaving {
			delete(m.n, v)
		}
		ctx.Send(v, msg1(core.LabelPresent, u, sim.Staying))
	}
}

func (m *mapProc) deliver(ctx sim.Context, msg sim.Message) {
	if len(msg.Refs) != 1 || (msg.Label != core.LabelPresent && msg.Label != core.LabelForward) {
		return
	}
	u := ctx.Self()
	v, claim := msg.Refs[0].Ref, msg.Refs[0].Mode
	if v == u {
		return
	}
	if _, stored := m.n[v]; stored {
		m.n[v] = claim
	}
	if v == m.anchor {
		m.anchorMode = claim
		if claim == sim.Leaving {
			m.anchor = ref.Nil
		}
	}
	leaving, isForward := ctx.Mode() == sim.Leaving, msg.Label == core.LabelForward
	switch {
	case claim == sim.Leaving && leaving && isForward && !m.anchor.IsNil():
		ctx.Send(m.anchor, msg1(core.LabelForward, v, claim)) // Algorithm 3 line 8
	case claim == sim.Leaving && leaving:
		ctx.Send(v, msg1(core.LabelForward, u, sim.Leaving))
	case claim == sim.Leaving:
		delete(m.n, v)
		ctx.Send(v, msg1(core.LabelForward, u, sim.Staying))
	case leaving && !m.anchor.IsNil() && isForward:
		ctx.Send(m.anchor, msg1(core.LabelForward, v, claim)) // Algorithm 3 line 16
	case leaving && !m.anchor.IsNil():
		ctx.Send(v, msg1(core.LabelForward, u, sim.Leaving)) // Algorithm 2 line 13
	case leaving:
		m.setAnchor(v, sim.Staying)
	default:
		m.n[v] = claim
	}
}

func (m *mapProc) undeliverable(ctx sim.Context, to ref.Ref, msg sim.Message) {
	if m.anchor == to {
		m.anchor = ref.Nil
	}
	if msg.Label != core.LabelForward || len(msg.Refs) != 1 {
		return
	}
	if ri := msg.Refs[0]; ri.Ref != ctx.Self() && ri.Ref != to {
		ctx.Send(ctx.Self(), msg1(core.LabelForward, ri.Ref, ri.Mode))
	}
}
