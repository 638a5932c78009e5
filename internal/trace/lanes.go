package trace

import "sync/atomic"

// lanes holds one *T per sim.Event.Lane, allocated on the lane's first use,
// so observers on different lanes (the runtime's shard workers) share no
// state: the flight recorder keeps a ring per lane, the journal Writer a
// line buffer per lane. An engine that stamps no lane uses lane 0 only.
type lanes[T any] [256]atomic.Pointer[T]

// get returns lane's value, allocating it with open on the lane's first use;
// of two first users one wins and both use the winner's.
func (l *lanes[T]) get(lane uint8, open func() *T) *T {
	if v := l[lane].Load(); v != nil {
		return v
	}
	v := open()
	if !l[lane].CompareAndSwap(nil, v) {
		v = l[lane].Load()
	}
	return v
}

// each calls fn on every allocated lane's value, in lane order.
func (l *lanes[T]) each(fn func(*T)) {
	for i := range l {
		if v := l[i].Load(); v != nil {
			fn(v)
		}
	}
}
