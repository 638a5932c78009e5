package fdp

import (
	"flag"
	"fmt"
	"strings"

	"fdp/internal/churn"
)

// Topologies lists every initial topology, in declaration order.
func Topologies() []Topology { return churn.Topologies() }

// Patterns lists every leave pattern, in declaration order.
func Patterns() []LeavePattern { return churn.Patterns() }

// Variants lists both departure variants.
func Variants() []Variant { return []Variant{FDP, FSP} }

// OracleKinds lists every oracle kind, in declaration order.
func OracleKinds() []OracleKind {
	return []OracleKind{OracleSingle, OracleNIDEC, OracleExitSafe, OracleTimeoutSingle, OracleUnsafe}
}

// Schedulers lists every scheduler, in declaration order.
func Schedulers() []Scheduler {
	return []Scheduler{SchedRandom, SchedRounds, SchedAdversarial, SchedFIFO}
}

// String names the variant.
func (v Variant) String() string { return nameOf(int(v), "fdp", "fsp") }

// String names the oracle kind.
func (k OracleKind) String() string {
	return nameOf(int(k), "single", "nidec", "exitsafe", "timeout", "unsafe")
}

// String names the scheduler; it is the Name() of the scheduler it selects.
func (s Scheduler) String() string { return nameOf(int(s), "random", "rounds", "adversarial", "fifo") }

func nameOf(i int, names ...string) string {
	if i < 0 || i >= len(names) {
		return fmt.Sprintf("invalid(%d)", i)
	}
	return names[i]
}

// NameVar defines a flag on fs that sets *p to the member of all whose
// String() is the flag's argument; *p's current value is the default. Each
// vocabulary's list above is its one name table, so a flag accepts exactly
// what String prints — for topologies and leave patterns, the spellings
// journal headers record — and any other argument fails flag parsing with
// the flag's name and the known names, never silently the zero value.
func NameVar[T fmt.Stringer](fs *flag.FlagSet, p *T, name, usage string, all []T) {
	usage = fmt.Sprintf("%s: %s (default %v)", usage, strings.Join(churn.Names(all), "|"), *p)
	fs.Func(name, usage, func(arg string) error {
		v, err := churn.ByName(name, arg, all)
		if err == nil {
			*p = v
		}
		return err
	})
}
