package churn

import (
	"fmt"
	"strings"
)

// Names returns what each member of all prints, in order.
func Names[T fmt.Stringer](all []T) []string {
	names := make([]string, len(all))
	for i, v := range all {
		names[i] = v.String()
	}
	return names
}

// ByName inverts String over all: it returns the value of a scenario
// vocabulary (what: "topology", "oracle", …) that prints as name. The error
// of a miss lists every known name, so a mistyped flag or journal header is
// diagnosed instead of silently becoming the zero value.
func ByName[T fmt.Stringer](what, name string, all []T) (T, error) {
	for _, v := range all {
		if v.String() == name {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (known: %s)", what, name, strings.Join(Names(all), ", "))
}

// TopologyByName inverts Topology.String.
func TopologyByName(name string) (Topology, error) {
	return ByName("topology", name, Topologies())
}

// PatternByName inverts LeavePattern.String.
func PatternByName(name string) (LeavePattern, error) {
	return ByName("leave pattern", name, Patterns())
}
