package fdp

import (
	"flag"
	"strings"
	"testing"

	"fdp/internal/churn"
	"fdp/internal/trace"
)

// roundTrip registers a NameVar over all and checks that every member is
// reachable by the name it prints, that the default survives an empty
// command line, and that a name nothing prints fails parsing with the flag
// and the known names.
func roundTrip[T interface {
	comparable
	String() string
}](t *testing.T, flagName string, all []T) {
	t.Helper()
	newSet := func(p *T) (*flag.FlagSet, *strings.Builder) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var out strings.Builder
		fs.SetOutput(&out)
		NameVar(fs, p, flagName, "usage", all)
		return fs, &out
	}
	for _, want := range all {
		var got T
		fs, out := newSet(&got)
		if err := fs.Parse([]string{"-" + flagName, want.String()}); err != nil || got != want {
			t.Errorf("-%s %s: got %v, err %v\n%s", flagName, want, got, err, out)
		}
	}
	def := all[len(all)-1]
	fs, _ := newSet(&def)
	if err := fs.Parse(nil); err != nil || def != all[len(all)-1] {
		t.Errorf("-%s: default did not survive an empty command line: %v, %v", flagName, def, err)
	}
	fs, out := newSet(&def)
	err := fs.Parse([]string{"-" + flagName, "no-such-name"})
	if err == nil || def != all[len(all)-1] {
		t.Fatalf("-%s no-such-name: accepted as %v", flagName, def)
	}
	for _, known := range append([]string{"-" + flagName}, churn.Names(all)...) {
		if !strings.Contains(err.Error(), known) {
			t.Errorf("-%s no-such-name: error %q does not mention %q", flagName, err, known)
		}
	}
	if !strings.Contains(out.String(), strings.Join(churn.Names(all), "|")) {
		t.Errorf("-%s: usage does not list the known names:\n%s", flagName, out)
	}
}

func TestNameVarRoundTripsEveryVocabulary(t *testing.T) {
	roundTrip(t, "topology", Topologies())
	roundTrip(t, "pattern", Patterns())
	roundTrip(t, "variant", Variants())
	roundTrip(t, "oracle", OracleKinds())
	roundTrip(t, "scheduler", Schedulers())
	if got := OracleKind(17).String(); got != "invalid(17)" {
		t.Errorf("out-of-range oracle kind prints %q", got)
	}
}

// A scheduler's façade name is the Name() of the scheduler Simulate runs and
// stamps into journal headers; a value outside the list is a bad config, not
// silently the default.
func TestSchedulerNamesAreEngineNames(t *testing.T) {
	for _, s := range Schedulers() {
		sched, err := trace.SchedulerByName(s.String(), 1)
		if err != nil || sched.Name() != s.String() {
			t.Errorf("scheduler %v: engine built %v, %v", s, sched, err)
		}
	}
	if _, err := Simulate(Config{N: 4, Scheduler: Scheduler(9)}); err == nil {
		t.Error("Simulate accepted scheduler 9")
	}
}
