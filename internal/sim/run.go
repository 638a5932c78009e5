package sim

import (
	"errors"
	"fmt"
)

// RunOptions configures a run driver.
type RunOptions struct {
	// Variant selects the legitimacy predicate (FDP or FSP).
	Variant Variant
	// MaxSteps bounds the run; exceeding it is a convergence failure.
	MaxSteps int
	// CheckEvery controls how often legitimacy is evaluated (every k
	// steps); 0 selects a default proportional to the system size.
	CheckEvery int
	// CheckSafety verifies the Lemma 2 invariant (relevant processes stay
	// weakly connected per initial component) at every legitimacy check,
	// aborting the run on violation.
	CheckSafety bool
	// SafetyEveryStep verifies the Lemma 2 invariant after *every* step.
	// Expensive; for tests on small systems.
	SafetyEveryStep bool
	// Potential, if set, is sampled at every legitimacy check; the series
	// is returned in the result. Used for the Φ experiments.
	Potential func(*World) int
	// OnStep, if set, runs after every executed action.
	OnStep func(*World)
	// Target, if set, is part of the convergence test: the run converges
	// once the world is legitimate and Target holds (for P′, that the staying
	// processes form P's target topology: churn.Scenario.InTarget).
	Target func(*World) bool
	// Stop, if set, makes the driver return early (Interrupted=true) once
	// the channel is closed — checked at every legitimacy check, so the
	// granularity is CheckEvery steps. This is the cooperative cancellation
	// the cmd/ binaries' signal handlers use for graceful shutdown.
	Stop <-chan struct{}
}

// RunResult reports the outcome of a run.
type RunResult struct {
	Converged bool // reached a legitimate state within MaxSteps
	Steps     int
	Rounds    int // meaningful when the scheduler is a *RoundScheduler
	Stats     Stats
	// PotentialSeries holds (step, Φ) samples when RunOptions.Potential is
	// set.
	PotentialSteps  []int
	PotentialValues []int
	// SafetyViolation is non-nil if a safety check failed; the run stops
	// immediately in that case.
	SafetyViolation error
	// Interrupted reports that RunOptions.Stop fired before the run reached
	// a verdict; Converged is false in that case unless the final check
	// happened to pass.
	Interrupted bool
}

// ErrSafety is wrapped by any safety-violation error.
var ErrSafety = errors.New("safety violated: relevant processes disconnected")

// Run drives the world under the given scheduler until a legitimate state in
// which opts.Target holds is reached, MaxSteps is exceeded, safety is
// violated, or no action is enabled. SealInitialState must have been called
// on the world.
func Run(w *World, sched Scheduler, opts RunOptions) RunResult {
	if w.InitialComponents() == nil {
		w.SealInitialState()
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1 << 20
	}
	checkEvery := opts.CheckEvery
	if checkEvery <= 0 {
		checkEvery = len(w.Refs())
		if checkEvery < 1 {
			checkEvery = 1
		}
	}
	res := RunResult{}
	converged := func() bool {
		return w.Legitimate(opts.Variant) && (opts.Target == nil || opts.Target(w))
	}
	stopped := func() bool {
		if opts.Stop == nil {
			return false
		}
		select {
		case <-opts.Stop:
			res.Interrupted = true
			return true
		default:
			return false
		}
	}
	sample := func() bool {
		if opts.Potential != nil {
			res.PotentialSteps = append(res.PotentialSteps, w.Steps())
			res.PotentialValues = append(res.PotentialValues, opts.Potential(w))
		}
		if opts.CheckSafety && !w.RelevantComponentsIntact() {
			res.SafetyViolation = fmt.Errorf("%w (step %d)", ErrSafety, w.Steps())
			return false
		}
		return !converged()
	}
	if !sample() {
		res.Converged = res.SafetyViolation == nil
		res.Steps = w.Steps()
		res.Stats = w.Stats()
		res.Rounds = roundsOf(sched)
		return res
	}
	for w.Steps() < opts.MaxSteps {
		a, ok := sched.Next(w)
		if !ok {
			// No action chosen: the world is quiescent (FSP-like states) or
			// the scheduler gave up early. Run the same sample as a periodic
			// check — skipping CheckSafety here would let a run that stalls
			// in a disconnected state report "not converged" with no
			// SafetyViolation, indistinguishable from a liveness failure.
			cont := sample()
			if res.SafetyViolation == nil {
				res.Converged = !cont
			}
			break
		}
		w.Execute(a)
		if opts.OnStep != nil {
			opts.OnStep(w)
		}
		if opts.SafetyEveryStep && !w.RelevantComponentsIntact() {
			res.SafetyViolation = fmt.Errorf("%w (step %d)", ErrSafety, w.Steps())
			break
		}
		if w.Steps()%checkEvery == 0 {
			if !sample() {
				res.Converged = res.SafetyViolation == nil
				break
			}
			if stopped() {
				break
			}
		}
	}
	if !res.Converged && res.SafetyViolation == nil {
		// Final check in case MaxSteps landed between samples.
		res.Converged = converged()
	}
	res.Steps = w.Steps()
	res.Stats = w.Stats()
	res.Rounds = roundsOf(sched)
	return res
}

func roundsOf(s Scheduler) int {
	if rs, ok := s.(*RoundScheduler); ok {
		return rs.Rounds()
	}
	return 0
}
