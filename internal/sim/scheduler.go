package sim

import (
	"math/rand"
)

// Scheduler picks the next enabled action. All schedulers in this package
// are fair: every continuously enabled timeout runs infinitely often and
// every message is eventually delivered, as the model's computations
// require. Beyond fairness they differ in how adversarially they reorder
// messages and starve timeouts, which is how we probe self-stabilization
// from many schedules.
type Scheduler interface {
	Name() string
	// Next picks an enabled action; ok is false iff no action is enabled.
	Next(w *World) (a Action, ok bool)
}

// --- Random scheduler ---------------------------------------------------

// RandomScheduler picks uniformly among all enabled actions, with an aging
// bound that mechanically guarantees fairness: periodic sweeps collect any
// message older than AgingBound steps and any awake process whose timeout
// has not run for AgingBound steps into a backlog that is served first.
// A uniform pick walks the process slice, O(#processes); a sweep costs
// O(#processes + #messages) and runs every AgingBound/2 steps. Which of the
// two a run pays depends on n against AgingBound: once n is well past the
// bound, most timeouts are overdue at every sweep, the backlog serves nearly
// every pick at O(1), and the walk is rare, yet each walk is long: at
// n = 20000 with the default bound PickEnabled takes ~6 % of a sim_churn
// CPU profile (0.57 s flat of the driver's 8.63 s over 10 s, 2-core host).
type RandomScheduler struct {
	rng        *rand.Rand
	AgingBound int

	lastSweep int
	backlog   []Action // what the last sweep found overdue; reused across sweeps
	pos       int      // cursor into backlog, so the buffer keeps its capacity
}

// NewRandomScheduler returns a seeded random scheduler with the given aging
// bound (<= 0 selects a default of 512).
func NewRandomScheduler(seed int64, agingBound int) *RandomScheduler {
	if agingBound <= 0 {
		agingBound = 512
	}
	return &RandomScheduler{rng: rand.New(rand.NewSource(seed)), AgingBound: agingBound}
}

// Name identifies the scheduler in reports.
func (s *RandomScheduler) Name() string { return "random" }

// Next implements Scheduler.
func (s *RandomScheduler) Next(w *World) (Action, bool) {
	// Serve overdue work first to guarantee fairness deterministically.
	for s.pos < len(s.backlog) {
		a := s.backlog[s.pos]
		s.pos++
		if w.ValidateAction(&a) {
			return a, true
		}
	}
	if w.Steps()-s.lastSweep >= s.AgingBound/2 {
		s.sweep(w)
		s.lastSweep = w.Steps()
		if len(s.backlog) > 0 {
			return s.Next(w)
		}
	}
	total := w.EnabledCount()
	if total == 0 {
		return Action{}, false
	}
	return w.PickEnabled(s.rng.Intn(total)), true
}

// sweep collects every action that exceeded the aging bound: timeouts by
// the step they last ran, messages by the step they were enqueued. It scans
// process state directly rather than materializing EnabledActions. Next
// sweeps only once the previous backlog is served, so the buffer is free.
func (s *RandomScheduler) sweep(w *World) {
	s.backlog, s.pos = s.backlog[:0], 0
	step := w.Steps()
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		if p.life == Awake && step-p.lastTimeout > s.AgingBound {
			s.backlog = append(s.backlog, Action{Proc: p.id, IsTimeout: true})
		}
		for i := range p.ch {
			if step-p.ch[i].enqStep > s.AgingBound {
				s.backlog = append(s.backlog, Action{
					Proc: p.id, MsgIndex: i, MsgSeq: p.ch[i].seq, MsgStep: p.ch[i].enqStep,
				})
			}
		}
	}
}

// --- Round scheduler ----------------------------------------------------

// RoundScheduler executes canonical synchronous rounds in two global
// phases: first every process (in deterministic order) processes all
// messages that were in its channel at the start of the round, then every
// awake process executes its timeout. This is trivially fair and provides
// the "rounds to convergence" metric used by the experiments.
//
// The phase split matters for oracle-guarded exits: a timeout's oracle
// query sees a round boundary where every message from the previous round
// has been consumed. Interleaving timeouts between deliveries instead can
// starve guards that depend on in-flight state forever — a leaver
// re-verifying its anchor sends one self-introduction per round, and if its
// timeout always runs before the anchor's delivery, NIDEC's no-incoming-
// edges condition is false at every single query even though the schedule
// is fair (found by the churn fuzzer as a sequential-only livelock).
type RoundScheduler struct {
	plan   []Action // reused round plan buffer
	pos    int      // cursor into plan, so the buffer keeps its capacity
	rounds int
}

// NewRoundScheduler returns a fresh round scheduler.
func NewRoundScheduler() *RoundScheduler { return &RoundScheduler{} }

// Name identifies the scheduler in reports.
func (s *RoundScheduler) Name() string { return "rounds" }

// Rounds returns the number of completed rounds.
func (s *RoundScheduler) Rounds() int { return s.rounds }

// Next implements Scheduler. The per-round plan snapshots message sequence
// numbers at round start; messages arriving during the round wait for the
// next round, which models arbitrary (but fair) delivery delay.
func (s *RoundScheduler) Next(w *World) (Action, bool) {
	for {
		for s.pos < len(s.plan) {
			a := s.plan[s.pos]
			s.pos++
			if !w.ValidateAction(&a) {
				continue
			}
			return a, true
		}
		if w.Quiescent() {
			return Action{}, false
		}
		s.buildRound(w)
		s.pos = 0
		s.rounds++
	}
}

// buildRound snapshots the message seqs present at round start: the
// delivery phase first (every process's round-start messages), then the
// timeout phase. It iterates the dense process slice in place (already in
// deterministic ref order) and reads channels directly — no per-round ref
// sort or channel copy.
func (s *RoundScheduler) buildRound(w *World) {
	s.plan = s.plan[:0]
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		for i := range p.ch {
			s.plan = append(s.plan, Action{Proc: p.id, MsgIndex: i, MsgSeq: p.ch[i].seq, MsgStep: p.ch[i].enqStep})
		}
	}
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		s.plan = append(s.plan, Action{Proc: p.id, IsTimeout: true})
	}
}

// --- Adversarial scheduler ----------------------------------------------

// AdversarialScheduler tries to break stabilization within the fairness
// constraints: it delivers the newest messages first (LIFO, maximal
// reordering), starves timeouts for as long as the fairness bound allows,
// and sometimes targets a single process's backlog to create hot spots.
type AdversarialScheduler struct {
	rng   *rand.Rand
	Bound int // fairness bound, in steps

	timeouts []Action // scratch buffer reused across picks
}

// NewAdversarialScheduler returns a seeded adversarial scheduler with the
// given fairness bound (<= 0 selects 256).
func NewAdversarialScheduler(seed int64, bound int) *AdversarialScheduler {
	if bound <= 0 {
		bound = 256
	}
	return &AdversarialScheduler{rng: rand.New(rand.NewSource(seed)), Bound: bound}
}

// Name identifies the scheduler in reports.
func (s *AdversarialScheduler) Name() string { return "adversarial" }

// Next implements Scheduler. It scans process state directly in one pass —
// no per-pick EnabledActions materialization.
func (s *AdversarialScheduler) Next(w *World) (Action, bool) {
	step := w.Steps()
	var best Action // newest message (max seq) — worst-case reordering
	bestSeq := uint64(0)
	haveMsg := false
	s.timeouts = s.timeouts[:0]
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		if p.life == Awake {
			// Obey fairness first: overdue timeouts must run.
			if step-p.lastTimeout > s.Bound {
				return Action{Proc: p.id, IsTimeout: true}, true
			}
			s.timeouts = append(s.timeouts, Action{Proc: p.id, IsTimeout: true})
		}
		for i := range p.ch {
			m := &p.ch[i]
			// Overdue messages must run, aged by their enqueue step.
			if step-m.enqStep > s.Bound {
				return Action{Proc: p.id, MsgIndex: i, MsgSeq: m.seq, MsgStep: m.enqStep}, true
			}
			if m.seq >= bestSeq {
				best = Action{Proc: p.id, MsgIndex: i, MsgSeq: m.seq, MsgStep: m.enqStep}
				bestSeq, haveMsg = m.seq, true
			}
		}
	}
	if !haveMsg && len(s.timeouts) == 0 {
		return Action{}, false
	}
	if haveMsg && s.rng.Intn(8) != 0 {
		return best, true
	}
	// Occasionally run a random timeout so guards stay live.
	if len(s.timeouts) > 0 {
		return s.timeouts[s.rng.Intn(len(s.timeouts))], true
	}
	return best, true
}

// --- FIFO scheduler -------------------------------------------------------

// FIFOScheduler delivers the globally oldest message first, in drain-paced
// phases: all messages enqueued before the current phase are delivered (in
// global seq order), then every awake process executes one timeout, then
// the next phase begins. Although the model allows non-FIFO channels, FIFO
// order is a legal schedule and a useful baseline.
//
// The drain pacing matters. An earlier version interleaved one timeout per
// three picks at a fixed ratio; the churn fuzzer found that on dense
// graphs (junk-densified scenarios reach average degree > 2) the periodic
// self-introductions produced by timeouts then outpace the two deliveries
// per timeout, channels grow without bound, and a leaver's oracle
// re-verification message spends ever longer in flight — an incoming
// implicit edge at almost every NIDEC query, livelocking exits the
// concurrent engine performs easily (the nidec-fifo-flood fixture).
// Draining everything the previous phase produced before the next timeout
// pass keeps queues bounded by one phase's production while remaining fair
// and globally FIFO.
type FIFOScheduler struct {
	threshold uint64 // deliver messages with seq <= threshold before the next timeout pass

	timeouts []Action // pending timeout pass, served one action per pick
	tpos     int
}

// NewFIFOScheduler returns a FIFO scheduler.
func NewFIFOScheduler() *FIFOScheduler { return &FIFOScheduler{} }

// Name identifies the scheduler in reports.
func (s *FIFOScheduler) Name() string { return "fifo" }

// Next implements Scheduler. It scans process state directly in one pass —
// no per-pick EnabledActions materialization.
func (s *FIFOScheduler) Next(w *World) (Action, bool) {
	for {
		// Serve the pending timeout pass first, one action per pick.
		for s.tpos < len(s.timeouts) {
			a := s.timeouts[s.tpos]
			s.tpos++
			if p := w.lookup(a.Proc); p != nil && p.life == Awake {
				return a, true
			}
		}
		// Drain phase: the globally oldest message among those enqueued
		// before the phase started.
		var best Action
		bestSeq := ^uint64(0)
		haveMsg, anyMsg := false, false
		maxSeq := uint64(0)
		s.timeouts = s.timeouts[:0]
		for _, p := range w.procs {
			if p == nil || p.life == Gone {
				continue
			}
			if p.life == Awake {
				s.timeouts = append(s.timeouts, Action{Proc: p.id, IsTimeout: true})
			}
			for i := range p.ch {
				m := &p.ch[i]
				anyMsg = true
				if m.seq > maxSeq {
					maxSeq = m.seq
				}
				if m.seq <= s.threshold && m.seq < bestSeq {
					best = Action{Proc: p.id, MsgIndex: i, MsgSeq: m.seq, MsgStep: m.enqStep}
					bestSeq, haveMsg = m.seq, true
				}
			}
		}
		if haveMsg {
			s.timeouts = s.timeouts[:0] // not this pick's pass; rebuilt at phase end
			return best, true
		}
		if !anyMsg && len(s.timeouts) == 0 {
			return Action{}, false
		}
		// Phase boundary: everything at or below the threshold is consumed.
		// The next drain phase covers all messages produced so far; the
		// timeout pass built above runs first (possibly empty when every
		// process is asleep, in which case the raised threshold lets the
		// loop deliver the wake-up messages).
		s.threshold = maxSeq
		s.tpos = 0
	}
}
