package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fdp/internal/graph"
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
	// popBatch bounds how many messages one mailbox yields per turn: FIFO
	// fairness across the shard's mailboxes.
	popBatch = 32
	// timeoutTick paces timeout rounds: a shard fires at most one round per
	// tick. The model only requires weak fairness — every awake process
	// times out infinitely often — not timeouts at CPU speed; unpaced, the
	// timeout storm of every staying process re-sending to all neighbors
	// dominates the event stream and starves delivery work of CPU.
	timeoutTick = 200 * time.Microsecond
)

// mailbox is an unbounded FIFO message queue, private to the worker that owns
// the process: only that worker touches it while the system runs (under its
// action read lock), and a full pause, which excludes every worker, makes it
// plain data for the pauser. A message for a process of another shard reaches
// it through that shard's inbox (shard.deposit, shard.absorb). An empty
// mailbox holds no array: pop hands a drained one to the shard's free list
// and put takes one from there, so a shard's arrays number its peak of
// non-empty mailboxes, not its processes. The mailbox of a gone process
// RETAINS its queue: what was admitted before the exit stays where it is,
// and nobody reads it again.
type mailbox struct {
	queue []sim.Message
	head  int // queue[head:] is live; popped slots are reused by compaction
}

func (m *mailbox) len() int { return len(m.queue) - m.head }

// put appends msg. An empty mailbox first takes an array from free; a long
// one first reclaims its popped prefix once that is the larger half.
func (m *mailbox) put(msg *sim.Message, free *[][]sim.Message) {
	if m.queue == nil {
		if k := len(*free) - 1; k >= 0 {
			m.queue, *free = (*free)[k], (*free)[:k]
		}
	} else if m.head > 64 && m.head >= len(m.queue)/2 {
		n := copy(m.queue, m.queue[m.head:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, *msg)
}

// pop removes and returns the oldest message; the mailbox must not be empty.
// A drained queue goes to free, its popped slots as they are.
func (m *mailbox) pop(free *[][]sim.Message) sim.Message {
	msg := m.queue[m.head]
	m.head++
	if m.head == len(m.queue) {
		*free = append(*free, m.queue[:0])
		m.queue, m.head = nil, 0
	}
	return msg
}

// parcel is one admitted message on its way to a process of another shard.
type parcel struct {
	to  *proc
	msg sim.Message
}

// flushAt is the outbox length at which a worker publishes the batch to the
// target shard's inbox without waiting for the end of its iteration: after
// the action in which it was reached, never inside it — a delivery's reply
// may ride on the delivered message's ledger count until the action ends
// (degree.go, the reply handoff), and nobody may pop it before then.
const flushAt = 32

// tally is a shard's share of the runtime's always-on counters: the worker
// (or a pauser) adds here, a reader sums over the shards. No action touches
// a counter another shard's worker writes.
type tally struct {
	events  atomic.Uint64 // executed actions (timeouts + deliveries)
	sent    atomic.Uint64
	dropped atomic.Uint64 // sends to gone or unknown targets (vanish, like the model)
	kinds   [sim.NumEventKinds]atomic.Uint64

	outboxFlushes  atomic.Uint64 // batches this shard published to another's inbox
	outboxMessages atomic.Uint64 // messages in those batches
	inboxAbsorbs   atomic.Uint64 // times this shard emptied its inbox
	pairHandoffs   atomic.Uint64 // ledger debts taken over (shard.handoffs, published per iteration)
	exitCommits    atomic.Uint64 // exits the worker committed (shard.commits, published per iteration)
}

// shard is one worker's slice of the runtime: a disjoint set of processes
// with their mailboxes, a run queue of the ones with deliverable messages,
// and the two locks of the §12 discipline — actMu (the pause point every
// action runs under) and mbMu (the leaf lock of what other goroutines hand
// the worker: the inbox and the ready list).
type shard struct {
	idx int
	rt  *Runtime

	// actMu is the shard's action lock: the worker holds the read side for
	// one bounded iteration of deliveries and timeouts; pauseAll takes the
	// write side of every shard (from a rotating start) to quiesce the
	// world for snapshots, exit validation and Mutate.
	actMu sync.RWMutex

	// mbMu guards what other goroutines leave for the worker: the inbox
	// (batches of messages admitted for owned processes by other shards'
	// workers and by Inject), the batches absorb drained, and the ready
	// list. Strictly a leaf: no other lock is ever acquired under it. A
	// sender takes it once per published batch, the worker once per absorb.
	mbMu  sync.Mutex //fdp:lockleaf
	inbox [][]parcel
	// drained holds the batches absorb emptied: a sender's deposit takes
	// one back, emptied, for its next batch.
	drained [][]parcel
	// inboxFull is set, under mbMu, by whoever leaves something in inbox and
	// cleared by absorb: the worker's check for mail is one load.
	inboxFull atomic.Bool

	// ready lists the owned leavers whose cached oracle answer just turned
	// true (judge), each at most once (proc.ready); timeoutRound serves them
	// ahead of the scan. Guarded by mbMu: whoever moved the row — any
	// worker, or a pauser — appends (markReady), the worker pops into
	// readyBuf (worker-private).
	ready []int32

	// notify is a capacity-1 wakeup: raised with every batch left in the
	// inbox (not per message) and when a pauser requeues a denied exiter.
	notify chan struct{}

	// awake counts owned processes in the awake state; 0 lets the worker
	// block indefinitely instead of polling (FSP hibernation). AddProcess
	// counts a process in, and every change of its life moves the count.
	awake atomic.Int32

	// Everything below is the worker's own: touched by it under the action
	// read lock, or by a pauser. The pad keeps it off the cache lines other
	// goroutines write above.
	_ [64]byte

	// exitLat holds the runtime's clock at each exit committed for an owned
	// process; ExitLatencies merges the shard buffers at a pause.
	exitLat []time.Duration

	// runq lists the owned processes with deliverable messages, by reference
	// index, each at most once (proc.inRun).
	runq   []int32
	rqHead int

	// outbox[k] collects the messages this worker admitted for processes of
	// shard k, until flush hands the array itself to k's inbox: after the
	// action in which it reached flushAt messages (due says one did), and
	// before the worker lets go of actMu — a pauser never finds one
	// non-empty. spare is the list absorb swaps the inbox for, still naming
	// the batches the last absorb emptied: the next absorb moves them to
	// drained before it reuses the list.
	outbox [][]parcel
	due    bool
	spare  [][]parcel

	// free lists the arrays of drained mailboxes, each of length 0
	// (mailbox.put, pop).
	free [][]sim.Message

	// handoffs counts the ledger debts this worker's actions took over, and
	// commits the exits they committed, since the worker last added them to
	// n.pairHandoffs and n.exitCommits, once per iteration.
	handoffs, commits uint64

	// pids are the owned processes by reference index, in timeout-lap
	// order. AddProcess appends; under a degree oracle seal then moves the
	// live leavers and the processes in their ledger rows to the front
	// (orderLaps). Nothing writes it after seal; the worker reads it.
	pids     []int32
	cursor   int           // round-robin position of the timeout scan
	nextTO   time.Duration // earliest moment, since the run began, of the next timeout round
	readyBuf []int32

	// diff holds syncRefs' sort buffers.
	diff graph.RefDiff

	// cid..cidEnd is the block of causal ids the worker hands out before it
	// reserves the next one from rt.causal (nextCID).
	cid, cidEnd uint64

	// others is the other shards' executed-action count as of the worker's
	// last look (sumOthers): what emit adds to the shard's own count for
	// Event.Step.
	others uint64

	n tally
	_ [64]byte
}

func (sh *shard) wake() {
	select {
	case sh.notify <- struct{}{}:
	default:
	}
}

// cidBlock is how many causal ids a worker reserves at a time.
const cidBlock = 64

// nextCID returns a fresh causal id from the worker's reserved block. Ids
// are unique across the runtime and ascending per worker, not globally
// ordered in time.
func (sh *shard) nextCID() uint64 {
	if sh.cid == sh.cidEnd {
		sh.cidEnd = sh.rt.causal.Add(cidBlock)
		sh.cid = sh.cidEnd - cidBlock
	}
	sh.cid++
	return sh.cid
}

// admit decides, at send time, whether msg enters p's channel. The implicit
// edges are counted first (msgPairs re-checks life under both degMu's, so
// a pair is either part of the degree p's exit is judged on or finds p gone
// and counts nothing); then a live p takes the message — it is in flight from
// here on, wherever it waits — and a gone p refuses it, the count undone.
// Reports p's channel length after the add. Callers run under some shard's
// action read lock, under a full pause, or before Start.
func (rt *Runtime) admit(p *proc, msg *sim.Message) (int, bool) {
	tracked := rt.jd != nil && len(msg.Refs) > 0
	if tracked {
		rt.msgPairs(p, msg.Refs, 1)
	}
	depth, ok := p.enter()
	if !ok && tracked {
		rt.msgPairs(p, msg.Refs, -1)
	}
	return depth, ok
}

// enter is admit's second half, for a message whose pairs are counted
// already: a live p takes it, a gone p refuses.
func (p *proc) enter() (int, bool) {
	if p.life.Load() == 2 {
		return 0, false
	}
	return int(p.depth.Add(1)), true
}

// push is admit plus the enqueue, for a caller that has p's mailbox to
// itself: before Start, or under a full pause. (A worker sends through post,
// Inject through deposit.) A stopped runtime refuses everything.
func (rt *Runtime) push(p *proc, msg *sim.Message) bool {
	if rt.closed.Load() {
		return false
	}
	_, ok := rt.admit(p, msg)
	if ok {
		p.sh.enqueue(p, msg)
		p.sh.wake()
	}
	return ok
}

// enqueue puts an admitted message into the mailbox of p, which sh owns, and
// makes p runnable. Caller is sh's worker, or has the world to itself.
func (sh *shard) enqueue(p *proc, msg *sim.Message) {
	p.mb.put(msg, &sh.free)
	sh.makeRunnable(p)
}

// makeRunnable puts p on the run queue if it has mail, is not there already
// and is not suspended. Same callers.
func (sh *shard) makeRunnable(p *proc) {
	if !p.inRun && p.mb.len() > 0 && !p.exitPending.Load() {
		p.inRun = true
		sh.runq = append(sh.runq, int32(ref.Index(p.id)))
	}
}

// post sends an admitted message on from sh's worker: into the mailbox if sh
// owns the target, else into the outbox for the target's shard. An outbox
// that reaches flushAt waits for the end of the action (flushDue).
func (sh *shard) post(p *proc, msg *sim.Message) {
	if p.sh == sh {
		sh.enqueue(p, msg)
		return
	}
	k := p.sh.idx
	sh.outbox[k] = append(sh.outbox[k], parcel{to: p, msg: *msg})
	if len(sh.outbox[k]) == flushAt {
		sh.due = true
	}
}

// flush hands the outbox for shard k to k's inbox and takes a drained array
// back for the next batch.
func (sh *shard) flush(k int) {
	out := sh.outbox[k]
	if len(out) == 0 {
		return
	}
	sh.outbox[k] = sh.rt.shards[k].deposit(out)
	sh.n.outboxFlushes.Add(1)
	sh.n.outboxMessages.Add(uint64(len(out)))
}

// flushDue publishes, between two actions, every outbox that reached
// flushAt during the last one.
func (sh *shard) flushDue() {
	if !sh.due {
		return
	}
	sh.due = false
	for k, out := range sh.outbox {
		if len(out) >= flushAt {
			sh.flush(k)
		}
	}
}

// flushAll empties every outbox; the worker calls it before it releases its
// action lock.
func (sh *shard) flushAll() {
	for k := range sh.outbox {
		sh.flush(k)
	}
	sh.due = false
}

// deposit leaves a batch of admitted messages for sh's worker, the array
// itself, and wakes it; under the same hold of the inbox lock it takes an
// array absorb drained (nil if there is none) and returns it, emptied, for
// the sender's next batch. The batch is sh's worker's from here on.
// Callers hold some shard's action read lock: the next pause absorbs the
// batch.
func (sh *shard) deposit(batch []parcel) []parcel {
	sh.mbMu.Lock()
	sh.inbox = append(sh.inbox, batch)
	var next []parcel
	if k := len(sh.drained) - 1; k >= 0 {
		next, sh.drained = sh.drained[k][:0], sh.drained[:k]
	}
	sh.inboxFull.Store(true)
	sh.mbMu.Unlock()
	sh.wake()
	return next
}

// absorb moves what the inbox holds into the owned mailboxes, batch by batch
// in the order they were deposited. One load when there is nothing. The
// batches it empties go to drained at its next lock hold, their parcels as
// they are. Caller is sh's worker under its action read lock, or a pauser.
func (sh *shard) absorb() {
	if !sh.inboxFull.Load() {
		return
	}
	sh.mbMu.Lock()
	sh.drained = append(sh.drained, sh.spare...)
	in := sh.inbox
	sh.inbox = sh.spare[:0]
	sh.inboxFull.Store(false)
	sh.mbMu.Unlock()
	for _, b := range in {
		for i := range b {
			sh.enqueue(b[i].to, &b[i].msg)
		}
	}
	sh.spare = in
	sh.n.inboxAbsorbs.Add(1)
}

// nextBatch absorbs the inbox, then pops the next runnable process off the
// run queue and says how many of its messages to deliver now (at most max).
// It returns nil when the run queue is empty. Stale entries (gone, suspended,
// or drained processes) are skipped. A process with more mail than the batch
// goes back on the queue first, so heavy receivers round-robin with everyone
// else.
func (sh *shard) nextBatch(max int) (*proc, int) {
	sh.absorb()
	// A hot run queue (processes re-appended faster than the head drains)
	// never fully empties, so compact the consumed prefix periodically.
	if sh.rqHead > 256 && sh.rqHead >= len(sh.runq)/2 {
		n := copy(sh.runq, sh.runq[sh.rqHead:])
		sh.runq, sh.rqHead = sh.runq[:n], 0
	}
	for sh.rqHead < len(sh.runq) {
		i := sh.runq[sh.rqHead]
		sh.rqHead++
		if sh.rqHead == len(sh.runq) {
			sh.runq, sh.rqHead = sh.runq[:0], 0
		}
		p := sh.rt.procs[i]
		k := p.mb.len()
		if p.exitPending.Load() || p.life.Load() == 2 || k == 0 {
			p.inRun = false
			continue
		}
		if k > max {
			k = max
			sh.runq = append(sh.runq, i)
		} else {
			p.inRun = false
		}
		return p, k
	}
	return nil, 0
}

// deliverRound drains up to deliverBudget messages from the shard's run
// queue, executing the delivery action of each under the already-held action
// read lock. Returns the number of deliveries executed.
func (sh *shard) deliverRound() int {
	delivered := 0
	for delivered < deliverBudget {
		p, k := sh.nextBatch(min(popBatch, deliverBudget-delivered))
		if p == nil {
			break
		}
		for ; k > 0; k-- {
			msg := p.mb.pop(&sh.free)
			delivered++
			stop := p.deliverAction(sh, &msg)
			sh.flushDue()
			if stop {
				// The action exited or suspended the process: the rest of its
				// mail stays in flight, in the mailbox.
				break
			}
		}
	}
	return delivered
}

// markReady puts p, whose cached oracle answer just turned true, on its
// shard's ready list, under the shard's inbox lock: the worker runs on.
// Caller holds no degMu.
func (rt *Runtime) markReady(p *proc) {
	if !p.ready.CompareAndSwap(false, true) {
		return
	}
	sh := p.sh
	sh.mbMu.Lock()
	sh.ready = append(sh.ready, int32(ref.Index(p.id)))
	sh.mbMu.Unlock()
}

// takeReady pops up to max processes off the ready list into the worker's
// buffer.
func (sh *shard) takeReady(max int) []int32 {
	sh.mbMu.Lock()
	k := min(len(sh.ready), max)
	sh.readyBuf = append(sh.readyBuf[:0], sh.ready[:k]...)
	sh.ready = sh.ready[:copy(sh.ready, sh.ready[k:])]
	sh.mbMu.Unlock()
	return sh.readyBuf
}

// timeoutRound executes up to timeoutBudget timeout actions: first the ready
// list — leavers that may exit as soon as they time out — on at most half the
// budget, then round-robin over the shard's awake processes in lap order
// (pids: under a degree oracle, leavers and their neighbours first), one full
// scan at most. The lap is a permutation of the shard's processes and the
// scan keeps at least the other half of every round, so a lap grows to at
// most twice its length and every awake process still times out infinitely
// often (weak fairness) however fast the ready list refills.
// Suspended (exit-pending) processes are skipped: they must not act between
// their exit request and the coordinator's verdict, and a granted one never
// acts again. No commit lands between the check's two reads: an exit of an
// owned process commits in its own action, on this worker, or under a pause
// that stops it.
func (sh *shard) timeoutRound() int {
	ran := 0
	for _, i := range sh.takeReady(timeoutBudget / 2) {
		p := sh.rt.procs[i]
		p.ready.Store(false)
		if p.exitPending.Load() || p.life.Load() != 0 {
			continue
		}
		p.timeoutAction(sh)
		sh.flushDue()
		ran++
	}
	n := len(sh.pids)
	for scanned := 0; scanned < n && ran < timeoutBudget; scanned++ {
		if sh.cursor >= n {
			sh.cursor = 0
		}
		p := sh.rt.procs[sh.pids[sh.cursor]]
		sh.cursor++
		if p.exitPending.Load() || p.life.Load() != 0 {
			continue
		}
		p.timeoutAction(sh)
		sh.flushDue()
		ran++
	}
	return ran
}

// iterate is one worker iteration: under one read hold of the action lock, a
// delivery round, then the timeout round once the runtime's clock, read
// after the deliveries, has reached nextTO, then every outbox published —
// what the worker admitted is in an inbox or a mailbox before a pauser can
// get the lock, and the pauser absorbs the inboxes — and the iteration's
// handoff and exit-commit counts added to the shard's tally. It reports
// whether any action ran. It reads no clock but rt.clock, the one its driver
// set: the wall-clock worker, or RunSeeded.
func (sh *shard) iterate() (busy bool) {
	sh.actMu.RLock()
	if len(sh.rt.hooks) > 0 {
		sh.sumOthers()
	}
	ran := sh.deliverRound()
	if now := sh.rt.clock(); now >= sh.nextTO {
		ran += sh.timeoutRound()
		sh.nextTO = now + timeoutTick
	}
	sh.flushAll()
	if sh.handoffs > 0 {
		sh.n.pairHandoffs.Add(sh.handoffs)
		sh.handoffs = 0
	}
	if sh.commits > 0 {
		sh.n.exitCommits.Add(sh.commits)
		sh.commits = 0
	}
	sh.actMu.RUnlock()
	return ran > 0
}

// worker is the shard's goroutine: it drives iterate on the wall clock. It
// iterates flat out while actions run, yielding the processor after every
// busy iteration — on a box with few cores a hot shard otherwise monopolizes
// its P for the ~10ms async-preemption slice and the coordinator (whose
// epochs pause the world for a stateful oracle) runs an order of magnitude
// below its intended cadence, so exit latency is scheduler-quantum bound, not
// protocol bound. Idle, it sleeps until the next timeout round is due, and
// it blocks entirely once every owned process is asleep or gone (FSP
// hibernation); a batch left in the inbox raises notify and cuts either wait
// short.
func (sh *shard) worker() {
	rt := sh.rt
	defer rt.wg.Done()
	idleTimer := time.NewTimer(time.Hour)
	idleTimer.Stop()
	for !rt.stop.Load() {
		if sh.iterate() {
			runtime.Gosched()
			continue
		}
		if sh.awake.Load() == 0 {
			select {
			case <-sh.notify:
			case <-rt.stopCh:
			}
			continue
		}
		// Clamped so a stale tick never spins and a long one never delays a
		// wakeup past idleMax.
		rt.rest(idleTimer, min(max(sh.nextTO-rt.clock(), idleMin), idleMax), sh.notify)
	}
}

// --- world pause ---------------------------------------------------------

// pauseAll quiesces the world: freezeMu serializes pausers (the epoch,
// Freeze, Mutate), then every shard's action lock is taken, starting one
// shard further round the ring at every pause. With all write
// sides held no action executes and every outbox is empty (a worker flushes
// before it unlocks); the pauser then absorbs every inbox, so every message
// in flight sits in its target's mailbox and mailboxes, run queues and
// protocol state are safe to read or mutate without further locking. Paired
// with resumeAll.
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
	for _, sh := range rt.shards {
		sh.absorb()
	}
}

// resumeAll releases the pause taken by pauseAll.
func (rt *Runtime) resumeAll() {
	for i := len(rt.shards) - 1; i >= 0; i-- {
		rt.shards[i].actMu.Unlock()
	}
	rt.freezeMu.Unlock()
}
