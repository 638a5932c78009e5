package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fdp/internal/ref"
	"fdp/internal/sim"
)

// Per-iteration work budgets of a shard worker. One worker iteration holds
// the shard's action lock once for up to deliverBudget deliveries plus up to
// timeoutBudget timeout actions, so the freeze latency of pauseAll is bounded
// by one iteration's work. Deliveries outnumber timeouts 8:1 so queues drain
// faster than timeout storms refill them (every staying process sends to all
// its neighbors on every timeout).
const (
	deliverBudget = 1024
	timeoutBudget = 128
	// popBatch bounds how many messages one mailbox yields per queue-lock
	// hold; FIFO fairness across the shard's mailboxes, amortized locking
	// within one.
	popBatch = 32
	// timeoutTick paces timeout rounds: a shard fires at most one round per
	// tick. The model only requires weak fairness — every awake process
	// times out infinitely often — not timeouts at CPU speed; unpaced, the
	// timeout storm of every staying process re-sending to all neighbors
	// dominates the event stream and starves delivery work of CPU.
	timeoutTick = 200 * time.Microsecond
)

// mailbox is an unbounded FIFO message queue. It has no lock of its own: all
// access is synchronized externally by the owning shard's single queue lock
// (mbMu) — one lock per shard instead of one per process — or by a full
// world pause, which excludes every worker and therefore every mbMu user.
// A closed mailbox stops accepting and delivering messages but RETAINS its
// queue: undelivered messages are in-flight state (implicit PG edges) the
// terminal freeze must still count.
type mailbox struct {
	queue  []sim.Message
	head   int // queue[head:] is live; popped slots are reused by compaction
	closed bool
}

func (m *mailbox) len() int { return len(m.queue) - m.head }

// popInto moves up to max messages into buf and returns it with the queue
// depth after the pop. Closed mailboxes deliver nothing.
func (m *mailbox) popInto(buf []sim.Message, max int) ([]sim.Message, int) {
	if m.closed {
		return buf, 0
	}
	k := m.len()
	if k > max {
		k = max
	}
	buf = append(buf, m.queue[m.head:m.head+k]...)
	m.head += k
	if m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
	} else if m.head > 64 && m.head >= len(m.queue)/2 {
		n := copy(m.queue, m.queue[m.head:])
		m.queue, m.head = m.queue[:n], 0
	}
	return buf, m.len()
}

// unpop puts popped-but-undelivered messages back at the front of the queue,
// preserving order. Used when an action suspends or exits its process in the
// middle of a delivery batch: the remaining messages were never delivered
// and must stay in-flight (a later close retains them for the terminal
// freeze).
func (m *mailbox) unpop(rest []sim.Message) {
	if len(rest) == 0 {
		return
	}
	if m.len() == 0 {
		// Nothing queued behind the batch (popInto reset the queue): reuse
		// its backing array.
		m.queue, m.head = append(m.queue[:0], rest...), 0
		return
	}
	merged := make([]sim.Message, 0, len(rest)+m.len())
	merged = append(merged, rest...)
	merged = append(merged, m.queue[m.head:]...)
	m.queue, m.head = merged, 0
}

// shard is one worker's slice of the runtime: a disjoint set of processes, a
// run queue of processes with deliverable messages, and the two locks of the
// §12 discipline — actMu (the pause point every action runs under) and mbMu
// (the leaf lock guarding every owned mailbox plus the run queue).
type shard struct {
	idx int
	rt  *Runtime

	// actMu is the shard's action lock: the worker holds the read side for
	// one bounded iteration of deliveries and timeouts; pauseAll takes the
	// write side of every shard (from a rotating start) to quiesce the
	// world for snapshots, exit validation and Mutate.
	actMu sync.RWMutex

	// mbMu is the shard's single queue lock: it guards the mailboxes of all
	// owned processes, the run queue, and the procs' inRun flags. Strictly a
	// leaf: no other lock is ever acquired under it. Senders on other shards
	// take it briefly per push; the worker amortizes it over message batches.
	mbMu   sync.Mutex //fdp:lockleaf
	runq   []uint32
	rqHead int

	// notify is a capacity-1 wakeup: raised when a push makes a process
	// newly runnable (not per message — batch notification), when a denied
	// exiter is rescheduled, and after a rebalance.
	notify chan struct{}

	// pids are the owned processes. Written only under a full pause
	// (AddProcess pre-Start, rebalance); read by the worker.
	pids   []uint32
	cursor int       // round-robin position of the timeout scan
	nextTO time.Time // earliest moment of the next timeout round (worker-private)

	// ready lists the owned leavers whose cached oracle answer the
	// coordinator just turned true (epochFast), each at most once (proc.ready);
	// timeoutRound serves them ahead of the scan. Guarded by mbMu: the
	// coordinator appends while the worker runs (markReady), the worker pops
	// into readyBuf (worker-private); a rebalance rebuilds it under the pause.
	ready    []uint32
	readyBuf []uint32

	// refScratch is syncRefs' sort buffer (worker-private).
	refScratch []ref.Ref

	// awake counts owned processes in the awake state; 0 lets the worker
	// block indefinitely instead of polling (FSP hibernation). live counts
	// the owned processes that are not gone, for the coordinator's balance
	// check. Both are set by seal and by a rebalance.
	awake atomic.Int32
	live  atomic.Int32

	// latMu guards the shard's exit-latency buffer. Commits append here
	// (the owning worker on the oracle-free path, else the coordinator —
	// never both in one run, the lock is for the concurrent reader);
	// ExitLatencies merges the shard buffers at read time. Strictly a leaf.
	latMu   sync.Mutex //fdp:lockleaf
	exitLat []time.Duration
}

func (sh *shard) wake() {
	select {
	case sh.notify <- struct{}{}:
	default:
	}
}

// push enqueues msg into p's mailbox under p's shard's queue lock, making p
// runnable if it wasn't. Reports the queue depth after the append and
// whether the push was accepted (a closed mailbox or a gone process refuses).
// Callers run
// under some shard's action read lock, under a full pause, or before Start.
func (rt *Runtime) push(p *proc, msg sim.Message) (int, bool) {
	if rt.trackDeg && len(msg.Refs) > 0 {
		// Count the implicit edges before the message becomes poppable, so
		// a racing delivery can never remove a pair before it was added; a
		// refused push undoes the count below.
		rt.addMsgPairs(p, &msg)
	}
	sh := rt.shards[p.shard.Load()]
	sh.mbMu.Lock()
	if p.mb.closed || p.life.Load() == 2 {
		// Gone, though the commit may not have closed the mailbox yet
		// (finishExit): a send either is queued before the exit or is
		// dropped, nothing in between.
		sh.mbMu.Unlock()
		if rt.trackDeg && len(msg.Refs) > 0 {
			rt.removeMsgPairs(p, &msg)
		}
		return 0, false
	}
	p.mb.queue = append(p.mb.queue, msg)
	depth := p.mb.len()
	newlyRunnable := false
	if !p.inRun && !p.exitPending.Load() {
		p.inRun = true
		sh.runq = append(sh.runq, p.pid)
		newlyRunnable = true
	}
	sh.mbMu.Unlock()
	if newlyRunnable {
		sh.wake()
	}
	return depth, true
}

// reschedule makes a denied exiter runnable again if deliveries queued up
// while it was suspended. Called by the coordinator, paused or not, after it
// cleared exitPending.
func (rt *Runtime) reschedule(p *proc) {
	sh := rt.shards[p.shard.Load()]
	sh.mbMu.Lock()
	runnable := !p.mb.closed && p.mb.len() > 0 && !p.inRun
	if runnable {
		p.inRun = true
		sh.runq = append(sh.runq, p.pid)
	}
	sh.mbMu.Unlock()
	if runnable {
		sh.wake()
	}
}

// nextBatch pops the next runnable process and up to max of its messages
// under one queue-lock hold. It returns nil when the run queue is empty.
// Stale entries (gone, suspended, or drained processes) are skipped. A
// process whose queue is still non-empty after the pop is re-appended, so
// heavy receivers round-robin with everyone else.
func (sh *shard) nextBatch(buf []sim.Message, max int) (*proc, []sim.Message, int) {
	sh.mbMu.Lock()
	defer sh.mbMu.Unlock()
	// A hot run queue (processes re-appended faster than the head drains)
	// never fully empties, so compact the consumed prefix periodically.
	if sh.rqHead > 256 && sh.rqHead >= len(sh.runq)/2 {
		n := copy(sh.runq, sh.runq[sh.rqHead:])
		sh.runq, sh.rqHead = sh.runq[:n], 0
	}
	for sh.rqHead < len(sh.runq) {
		pid := sh.runq[sh.rqHead]
		sh.rqHead++
		if sh.rqHead == len(sh.runq) {
			sh.runq, sh.rqHead = sh.runq[:0], 0
		}
		p := sh.rt.byPid[pid]
		if p.exitPending.Load() || p.life.Load() == 2 || p.mb.closed || p.mb.len() == 0 {
			p.inRun = false
			continue
		}
		batch, depth := p.mb.popInto(buf, max)
		if depth > 0 {
			sh.runq = append(sh.runq, pid)
		} else {
			p.inRun = false
		}
		return p, batch, depth
	}
	return nil, buf, 0
}

// deliverRound drains up to deliverBudget messages from the shard's run
// queue, executing the delivery action of each under the already-held action
// read lock. Returns the number of deliveries executed.
func (sh *shard) deliverRound(scratch *[]sim.Message) int {
	delivered := 0
	for delivered < deliverBudget {
		p, batch, depth := sh.nextBatch((*scratch)[:0], min(popBatch, deliverBudget-delivered))
		if p == nil {
			break
		}
		*scratch = batch
		for i := range batch {
			delivered++
			// Depth mirrors the sequential engine's EvDeliver depth: queue
			// length right after this message's removal.
			if p.deliverAction(sh, batch[i], depth+len(batch)-1-i) {
				// The action exited or suspended the process: the rest of the
				// batch was never delivered and goes back in flight.
				sh.mbMu.Lock()
				p.mb.unpop(batch[i+1:])
				sh.mbMu.Unlock()
				break
			}
		}
	}
	return delivered
}

// markReady puts p, whose cached oracle answer just turned true, on its
// shard's ready list, under the shard's queue lock: the worker runs on.
// Caller is the coordinator, holding freezeMu (p cannot change shards).
func (rt *Runtime) markReady(p *proc) {
	if !p.ready.CompareAndSwap(false, true) {
		return
	}
	sh := rt.shards[p.shard.Load()]
	sh.mbMu.Lock()
	sh.ready = append(sh.ready, p.pid)
	sh.mbMu.Unlock()
}

// takeReady pops up to max pids off the ready list into the worker's buffer.
func (sh *shard) takeReady(max int) []uint32 {
	sh.mbMu.Lock()
	k := min(len(sh.ready), max)
	sh.readyBuf = append(sh.readyBuf[:0], sh.ready[:k]...)
	sh.ready = sh.ready[:copy(sh.ready, sh.ready[k:])]
	sh.mbMu.Unlock()
	return sh.readyBuf
}

// timeoutRound executes up to timeoutBudget timeout actions: first the ready
// list — leavers that may exit as soon as they time out — on at most half the
// budget, then round-robin over the shard's awake processes (one full scan
// at most). The scan keeps at least the other half of every round, so its lap
// grows to at most twice its length and every awake process still times out
// infinitely often (weak fairness) however fast the ready list refills.
// Suspended (exit-pending) processes are skipped: they must not act between
// their exit request and the coordinator's verdict, and a granted one never
// acts again. The coordinator grants with the workers running, so the check
// must hold against a commit that lands between its two reads: a grant
// leaves exitPending set for good — only a denial lifts the suspension, and
// a denied process is still awake — so from retire on the process is both
// suspended and gone. (exitPending is read first, here and in nextBatch: the
// coordinator writes life before it touches the flag.)
func (sh *shard) timeoutRound() int {
	ran := 0
	for _, pid := range sh.takeReady(timeoutBudget / 2) {
		p := sh.rt.byPid[pid]
		p.ready.Store(false)
		if p.exitPending.Load() || p.life.Load() != 0 {
			continue
		}
		p.timeoutAction(sh)
		ran++
	}
	n := len(sh.pids)
	for scanned := 0; scanned < n && ran < timeoutBudget; scanned++ {
		if sh.cursor >= n {
			sh.cursor = 0
		}
		p := sh.rt.byPid[sh.pids[sh.cursor]]
		sh.cursor++
		if p.exitPending.Load() || p.life.Load() != 0 {
			continue
		}
		p.timeoutAction(sh)
		ran++
	}
	return ran
}

// worker is the shard's goroutine body: run bounded delivery rounds flat
// out while messages flow, fire a timeout round at most once per
// timeoutTick, and block entirely once every owned process is asleep or
// gone (FSP hibernation). A push from any shard raises notify and cuts the
// idle sleep short. After every productive round the worker yields the
// processor: on a box with few cores a hot shard otherwise monopolizes its
// P for the ~10ms async-preemption slice and the coordinator (whose epoch
// refreshes the oracle caches and commits exits) runs an order of magnitude
// below its intended cadence — exit latency is then scheduler-quantum
// bound, not protocol bound.
func (sh *shard) worker() {
	rt := sh.rt
	defer rt.wg.Done()
	idleTimer := time.NewTimer(time.Hour)
	if !idleTimer.Stop() {
		<-idleTimer.C
	}
	defer idleTimer.Stop()
	var scratch []sim.Message

	for !rt.stop.Load() {
		sh.actMu.RLock()
		delivered := sh.deliverRound(&scratch)
		timeouts := 0
		if now := time.Now(); !now.Before(sh.nextTO) {
			timeouts = sh.timeoutRound()
			sh.nextTO = now.Add(timeoutTick)
		}
		sh.actMu.RUnlock()

		if delivered > 0 || timeouts > 0 {
			runtime.Gosched()
			continue
		}
		if sh.awake.Load() == 0 {
			// Nothing to do and nothing will time out: hibernate until a
			// message arrives or the runtime stops.
			select {
			case <-sh.notify:
			case <-rt.stopCh:
			}
			continue
		}
		// Idle but awake processes remain: sleep until the next timeout
		// round is due (clamped so a stale tick never spins and a long one
		// never delays a wakeup past idleMax).
		d := time.Until(sh.nextTO)
		if d < idleMin {
			d = idleMin
		} else if d > idleMax {
			d = idleMax
		}
		idleTimer.Reset(d)
		select {
		case <-sh.notify:
			if !idleTimer.Stop() {
				<-idleTimer.C
			}
		case <-rt.stopCh:
			if !idleTimer.Stop() {
				<-idleTimer.C
			}
		case <-idleTimer.C:
		}
	}
}

// --- world pause ---------------------------------------------------------

// pauseAll quiesces the world: freezeMu serializes pausers (the coordinator,
// Freeze, Mutate, validateExit), then every shard's action lock is taken,
// starting one shard further round the ring at every pause. With all write
// sides held no action executes, no send is in flight, and every mailbox,
// ring and protocol state is safe to read or mutate without further locking.
// Paired with resumeAll.
//
// The start rotates because the shard locked first stands still while the
// pauser waits out the other workers' iterations. With a fixed order shard 0
// paid that wait at every epoch and fell behind on its timeout lap; the
// shards ahead of it kept timing out and sending, so it spent its rounds
// delivering their messages and fell further behind: at n=10000 it ended its
// first lap 1.5x to 2.4x as late as shard 1, by an amount that moved with the
// host's load, and since the last leaver's exit waits for the slowest lap,
// run time and messages per exit moved with it (DESIGN.md §12). Any order is
// deadlock-free: pausers queue on freezeMu, and a worker holds only its own
// shard's read side and waits for no other.
func (rt *Runtime) pauseAll() {
	rt.freezeMu.Lock()
	n := len(rt.shards)
	first := rt.pauseFirst
	rt.pauseFirst = (first + 1) % n
	for i := range rt.shards {
		rt.shards[(first+i)%n].actMu.Lock()
	}
}

// resumeAll releases the pause taken by pauseAll.
func (rt *Runtime) resumeAll() {
	for i := len(rt.shards) - 1; i >= 0; i-- {
		rt.shards[i].actMu.Unlock()
	}
	rt.freezeMu.Unlock()
}

// --- rebalance -----------------------------------------------------------

// Rebalance redistributes the live processes evenly across the shards under
// a full pause. Long churn runs decay the initial pid-modulo balance as
// processes exit; the coordinator triggers this automatically when the
// spread exceeds rebalanceRatio, and tests drive it directly.
func (rt *Runtime) Rebalance() {
	rt.pauseAll()
	defer rt.resumeAll()
	rt.rebalanceUnderPause()
}

// rebalanceRatio is the max/min live-process spread beyond which the
// coordinator rebalances at an epoch boundary.
const rebalanceRatio = 2

// rebalanceUnderPause deals the live processes round-robin across shards and
// rebuilds every run queue from mailbox state and every ready list from the
// procs' ready flags. Caller holds the world paused, so mailboxes, inRun
// flags, ready lists and shard assignments are plain data.
func (rt *Runtime) rebalanceUnderPause() {
	for _, sh := range rt.shards {
		sh.pids = sh.pids[:0]
		sh.runq, sh.rqHead = sh.runq[:0], 0
		sh.ready = sh.ready[:0]
		sh.cursor = 0
		sh.awake.Store(0)
		sh.live.Store(0)
	}
	i := 0
	for _, p := range rt.procs {
		if p == nil {
			continue
		}
		if p.life.Load() == 2 {
			p.inRun = false
			p.ready.Store(false)
			continue
		}
		sh := rt.shards[i%len(rt.shards)]
		i++
		p.shard.Store(uint32(sh.idx))
		sh.pids = append(sh.pids, p.pid)
		sh.live.Add(1)
		if p.ready.Load() {
			sh.ready = append(sh.ready, p.pid)
		}
		if p.life.Load() == 0 {
			sh.awake.Add(1)
		}
		p.inRun = !p.mb.closed && p.mb.len() > 0 && !p.exitPending.Load()
		if p.inRun {
			sh.runq = append(sh.runq, p.pid)
		}
	}
	for _, sh := range rt.shards {
		sh.wake()
	}
}

// skewed reports whether the live-process spread across shards exceeds
// rebalanceRatio, from the shards' own counters.
func (rt *Runtime) skewed() bool {
	minLive, maxLive := int32(-1), int32(0)
	for _, sh := range rt.shards {
		live := sh.live.Load()
		if minLive < 0 || live < minLive {
			minLive = live
		}
		if live > maxLive {
			maxLive = live
		}
	}
	return maxLive > rebalanceRatio*minLive+rebalanceRatio
}
