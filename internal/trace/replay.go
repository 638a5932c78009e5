package trace

import (
	"fmt"
	"io"
	"math"

	"fdp/internal/churn"
	"fdp/internal/faults"
	"fdp/internal/sim"
)

// RecordRun builds the scenario, runs it through RunSequential, and writes
// the journal of the run to w: the header RunSequential returns, then every
// event the run emitted. Golden journals and fuzz fixtures are recorded
// here.
func RecordRun(s Scenario, w io.Writer, opts sim.RunOptions) (sim.RunResult, error) {
	scn, err := s.BuildScenario()
	if err != nil {
		return sim.RunResult{}, err
	}
	var recs []Record
	scn.World.AddEventHook(func(e sim.Event) { recs = append(recs, FromEvent(e)) })
	res, hdr, err := RunSequential(s, scn, opts)
	if err != nil {
		return res, err
	}
	return res, WriteJournal(w, hdr, recs)
}

// RunSequential runs a scenario on the sequential engine, and is the one
// loop that strikes fault waves into a recorded run. scn is
// s.BuildScenario()'s world, on which the caller has hooked whatever
// observes the run (a journal, a flight ring, a progress tracker).
//
// The run goes under s's scheduler, built by SchedulerByName (an empty name
// is "random"). opts.Variant is forced from the scenario, and a P′ run goes
// on until the staying processes form P's target topology (opts.Target is
// the scenario's InTarget). Wave i fires once the world reaches its After
// step, or as soon as the run stalls before it, seeded with
// faults.WaveSeed(s.Seed, i); after the last wave the run gets
// opts.MaxSteps more steps (0 = 1<<20). A safety violation caught under
// opts.CheckSafety ends the run, waves still due included.
//
// The returned header describes the run that happened: the scheduler that
// ran, and each wave that fired at the step it ACTUALLY fired — the step
// Replay re-applies it at.
func RunSequential(s Scenario, scn *churn.Scenario, opts sim.RunOptions) (sim.RunResult, Header, error) {
	if s.Scheduler == "" {
		s.Scheduler = "random"
	}
	sched, err := SchedulerByName(s.Scheduler, s.Seed)
	if err != nil {
		return sim.RunResult{}, Header{}, err
	}
	if opts.Variant, err = s.SimVariant(); err != nil {
		return sim.RunResult{}, Header{}, err
	}
	budget := opts.MaxSteps
	if budget <= 0 {
		budget = 1 << 20
	}
	opts.Target = scn.InTarget

	var res sim.RunResult
	fired := make([]faults.Wave, 0, len(s.Strikes))
	for i, wv := range s.Strikes {
		if wv.After > scn.World.Steps() {
			opts.MaxSteps = wv.After
			res = sim.Run(scn.World, sched, opts)
			if res.SafetyViolation != nil {
				break
			}
		}
		faults.New(wv.Config, faults.WaveSeed(s.Seed, i)).Strike(scn.World)
		wv.After = scn.World.Steps()
		fired = append(fired, wv)
	}
	if res.SafetyViolation == nil {
		opts.MaxSteps = scn.World.Steps() + budget
		res = sim.Run(scn.World, sched, opts)
	}
	s.Strikes = fired
	return res, Header{Version: Version, Engine: EngineSim, Scenario: s}, nil
}

// Schedule extracts the executed action sequence from a journal: one action
// per timeout or delivery record, in journal order. Deliveries are
// re-resolved by message sequence number (sim.ValidateAction), the stable
// identity that survives channel reordering. Send/drop/exit/sleep/wake
// records are consequences of these actions, not schedule entries.
func Schedule(recs []Record) ([]sim.Action, error) {
	var out []sim.Action
	for i := range recs {
		rec := &recs[i]
		kind, ok := kindByName(rec.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: record %d has unknown kind %q", i, rec.Kind)
		}
		switch kind {
		case sim.EvTimeout, sim.EvDeliver:
			proc, err := parseRef(rec.Proc)
			if err != nil {
				return nil, fmt.Errorf("trace: record %d: %w", i, err)
			}
			// A journal does not record where in the channel a message sat:
			// the index past every channel's end makes ValidateAction search
			// all of it.
			out = append(out, sim.Action{
				Proc:      proc,
				IsTimeout: kind == sim.EvTimeout,
				MsgIndex:  math.MaxInt,
				MsgSeq:    rec.MsgSeq,
			})
		}
	}
	return out, nil
}

// ReplayError reports the point at which a recorded action stopped being
// executable against the rebuilt world — a divergence between the journal
// and this replay (corrupted journal, changed code, or a journal from a
// different build).
type ReplayError struct {
	// ActionIndex is the position in the extracted schedule.
	ActionIndex int
	// Action is the recorded action that failed to validate.
	Action sim.Action
}

// Error implements error.
func (e *ReplayError) Error() string {
	what := fmt.Sprintf("deliver seq=%d to %v", e.Action.MsgSeq, e.Action.Proc)
	if e.Action.IsTimeout {
		what = fmt.Sprintf("timeout of %v", e.Action.Proc)
	}
	return fmt.Sprintf("trace: replay diverged at action %d: %s no longer enabled", e.ActionIndex, what)
}

// Replay re-drives a sequential journal: it rebuilds the recorded scenario
// (BuildScenario), re-executes the recorded timeout/delivery sequence, and
// returns the events the replay emitted, as records. Because the sequential
// engine is deterministic, a faithful journal replays into byte-identical
// records (see VerifyReplay); a journal that stalls returns a *ReplayError.
//
// Only EngineSim journals replay — a runtime journal records one concurrent
// schedule that no sequential re-execution is obligated to reproduce (those
// are aligned with Diff instead).
func Replay(hdr Header, recs []Record) ([]Record, error) {
	_, replayed, err := ReplayWorld(hdr, recs)
	return replayed, err
}

// ReplayWorld is Replay plus the terminal state: it returns the rebuilt
// scenario with its world advanced through the recorded schedule, so callers
// can interrogate the outcome (safety, leavers, Φ) and not just the event
// stream. The fuzz shrinker's schedule-truncation predicate lives on this.
func ReplayWorld(hdr Header, recs []Record) (*churn.Scenario, []Record, error) {
	if hdr.Engine != EngineSim {
		return nil, nil, fmt.Errorf("trace: cannot replay %q journal (only %q journals are deterministic)", hdr.Engine, EngineSim)
	}
	scn, err := hdr.Scenario.BuildScenario()
	if err != nil {
		return nil, nil, err
	}
	schedule, err := Schedule(recs)
	if err != nil {
		return nil, nil, err
	}
	var replayed []Record
	scn.World.AddEventHook(func(e sim.Event) {
		replayed = append(replayed, FromEvent(e))
	})
	// Strikes recorded in the header fire at the step they fired during the
	// recording. Striking emits no events and is deterministic per wave seed,
	// so a re-applied strike preserves byte-identical replay.
	strikes := hdr.Scenario.Strikes
	si := 0
	applyDue := func() {
		for si < len(strikes) && strikes[si].After <= scn.World.Steps() {
			faults.New(strikes[si].Config, faults.WaveSeed(hdr.Scenario.Seed, si)).Strike(scn.World)
			si++
		}
	}
	applyDue()
	for i, a := range schedule {
		if !scn.World.ValidateAction(&a) {
			return scn, replayed, &ReplayError{ActionIndex: i, Action: a}
		}
		scn.World.Execute(a)
		applyDue()
	}
	return scn, replayed, nil
}

// VerifyReplay replays a sequential journal and aligns the result against
// the recording by causal ID. It returns nil iff the replay reproduced the
// journal exactly — the replay determinism contract (DESIGN.md §11). On
// divergence the returned *Divergence pinpoints the first differing event.
func VerifyReplay(hdr Header, recs []Record) (*Divergence, error) {
	replayed, err := Replay(hdr, recs)
	if err != nil {
		return nil, err
	}
	return DiffStrict(recs, replayed), nil
}
