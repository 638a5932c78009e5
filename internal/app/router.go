// Package app implements an application layer on top of the maintained
// overlay: greedy key-based routing — the lookup primitive that motivates
// list/ring/skip-list overlays (Chord-style DHTs) in the first place. It
// exists to measure what safe departures buy the application: lookup
// availability before, during and after churn (experiment E12), and what
// richer overlays buy it: hop counts on the skip list vs the plain list
// (experiment E15).
//
// Routed wraps any overlay protocol (staying in the class 𝒫 — routing only
// introduces and delegates references) and adds three message labels:
//
//	oroute(origin; target,hops) — forwarded greedily towards the target key;
//	odone(origin)               — success notification back to the origin;
//	ofail(origin)               — failure notification (greedy dead end).
//
//fdp:decomposable
package app

import (
	"fdp/internal/overlay"
	"fdp/internal/ref"
)

// Message labels of the routing layer.
const (
	LabelRoute = "oroute"
	LabelDone  = "odone"
	LabelFail  = "ofail"
)

// RoutePayload is the reference-free part of an oroute message.
type RoutePayload struct {
	// TargetKey is the key being looked up.
	TargetKey int
	// Hops counts forwarding steps so far.
	Hops int
	// TTL bounds the route length (guards against routing loops while the
	// overlay is still stabilizing).
	TTL int
}

// DonePayload reports a completed lookup back to the origin.
type DonePayload struct {
	TargetKey int
	Hops      int
}

// Stats counts lookup outcomes at the origin.
type Stats struct {
	Launched  int
	Delivered int
	Failed    int
	TotalHops int
}

// Routed adds greedy key routing on top of any overlay protocol.
type Routed struct {
	inner overlay.Protocol
	keys  overlay.Keys

	stats Stats
}

var _ overlay.Protocol = (*Routed)(nil)
var _ overlay.TargetChecker = (*Routed)(nil)
var _ overlay.Cloneable = (*Routed)(nil)

// NewRouted wraps the given overlay protocol.
func NewRouted(inner overlay.Protocol, keys overlay.Keys) *Routed {
	return &Routed{inner: inner, keys: keys}
}

// NewRoutedList returns greedy routing over the sorted-list overlay.
func NewRoutedList(keys overlay.Keys) *Routed {
	return NewRouted(overlay.NewLinearize(keys), keys)
}

// NewRoutedSkip returns greedy routing over the two-level skip list, whose
// level-1 shortcuts roughly halve hop counts.
func NewRoutedSkip(keys overlay.Keys) *Routed {
	return NewRouted(overlay.NewSkipList(keys), keys)
}

// CloneOverlay implements overlay.Cloneable: the wrapped overlay is deep-
// copied (it panics if that one is not cloneable), the key order is shared,
// and the clone starts from this process's counters.
//
//fdp:primitive init
func (r *Routed) CloneOverlay() overlay.Protocol {
	return &Routed{inner: overlay.CloneOf(r.inner), keys: r.keys, stats: r.stats}
}

// Inner exposes the wrapped overlay.
func (r *Routed) Inner() overlay.Protocol { return r.inner }

// AddNeighbor seeds the wrapped overlay — scenario construction only.
func (r *Routed) AddNeighbor(v ref.Ref) {
	r.inner.(interface{ AddNeighbor(ref.Ref) }).AddNeighbor(v)
}

// Name implements overlay.Protocol.
func (r *Routed) Name() string { return "routed-" + r.inner.Name() }

// Stats returns this process's lookup counters (meaningful at origins).
func (r *Routed) Stats() Stats { return r.stats }

// Timeout implements overlay.Protocol.
func (r *Routed) Timeout(ctx overlay.Context) { r.inner.Timeout(ctx) }

// Refs implements overlay.Protocol.
func (r *Routed) Refs() []ref.Ref { return r.inner.Refs() }

// Reintegrate implements overlay.Protocol.
func (r *Routed) Reintegrate(ctx overlay.Context, v ref.Ref) { r.inner.Reintegrate(ctx, v) }

// Exclude implements overlay.Protocol.
func (r *Routed) Exclude(v ref.Ref) { r.inner.Exclude(v) }

// Lin exposes the linearization state when the wrapped overlay has one, so
// overlay.AsLinearize works through the wrapper.
func (r *Routed) Lin() *overlay.Linearize { return overlay.AsLinearize(r.inner) }

// InTarget implements overlay.TargetChecker by unwrapping to the inner
// overlay's own target predicate.
func (r *Routed) InTarget(members []ref.Ref, lookup func(ref.Ref) overlay.Protocol) bool {
	tc, ok := r.inner.(overlay.TargetChecker)
	if !ok {
		return false
	}
	return tc.InTarget(members, func(m ref.Ref) overlay.Protocol {
		if rt, ok := lookup(m).(*Routed); ok {
			return rt.inner
		}
		return lookup(m)
	})
}

// Launch starts a lookup for targetKey from this process. ttl bounds the
// route (<=0 selects 64).
func (r *Routed) Launch(ctx overlay.Context, targetKey, ttl int) {
	if ttl <= 0 {
		ttl = 64
	}
	r.stats.Launched++
	r.route(ctx, ctx.Self(), RoutePayload{TargetKey: targetKey, TTL: ttl})
}

// Deliver implements overlay.Protocol.
func (r *Routed) Deliver(ctx overlay.Context, label string, refs []ref.Ref, payload any) {
	switch label {
	case LabelRoute:
		if len(refs) != 1 {
			return
		}
		p, ok := payload.(RoutePayload)
		if !ok {
			return
		}
		r.route(ctx, refs[0], p)
	case LabelDone:
		p, ok := payload.(DonePayload)
		if !ok {
			return
		}
		r.stats.Delivered++
		r.stats.TotalHops += p.Hops
	case LabelFail:
		r.stats.Failed++
	default:
		r.inner.Deliver(ctx, label, refs, payload)
	}
}

// route forwards a lookup greedily: to ourselves if the key matches, else
// to the stored reference strictly closest to the target key; a dead end or
// exhausted TTL fails back to the origin.
//
//fdp:primitive delegation,introduction
func (r *Routed) route(ctx overlay.Context, origin ref.Ref, p RoutePayload) {
	self := ctx.Self()
	myKey := r.keys[self]
	if p.TargetKey == myKey {
		if origin == self {
			r.stats.Delivered++
			r.stats.TotalHops += p.Hops
			return
		}
		ctx.Send(origin, LabelDone, []ref.Ref{self}, DonePayload{TargetKey: p.TargetKey, Hops: p.Hops})
		return
	}
	if p.Hops >= p.TTL {
		r.fail(ctx, origin, self)
		return
	}
	best := ref.Nil
	bestDist := abs(myKey - p.TargetKey)
	for _, v := range r.inner.Refs() {
		if d := abs(r.keys[v] - p.TargetKey); d < bestDist {
			best, bestDist = v, d
		}
	}
	if best.IsNil() {
		// No stored reference is closer than we are: greedy dead end. On a
		// converged overlay this means the key is absent.
		r.fail(ctx, origin, self)
		return
	}
	p.Hops++
	ctx.Send(best, LabelRoute, []ref.Ref{origin}, p)
}

//fdp:primitive introduction
func (r *Routed) fail(ctx overlay.Context, origin, self ref.Ref) {
	if origin == self {
		r.stats.Failed++
		return
	}
	ctx.Send(origin, LabelFail, []ref.Ref{self}, nil)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
