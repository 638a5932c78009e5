package sim

import (
	"fmt"
	"strings"
)

// FormatEvents renders events one per line. Both engines emit the same
// Event, so one format serves both: internal/diffval dumps each engine's
// last-K events (its trace.Flight ring) in it on any verdict disagreement.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%7d %-8s %v", e.Step, e.Kind, e.Proc)
		if !e.Peer.IsNil() {
			fmt.Fprintf(&b, " peer=%v", e.Peer)
		}
		if e.Label != "" {
			fmt.Fprintf(&b, " label=%s", e.Label)
		}
		// The causal coordinates make two engines' dumps joinable: initial
		// messages carry identical CIDs on both sides, so a cross-engine
		// disagreement can be aligned event by event instead of eyeballed.
		if e.CID != 0 {
			fmt.Fprintf(&b, " cid=%d", e.CID)
			if e.Parent != 0 {
				fmt.Fprintf(&b, " parent=%d", e.Parent)
			}
			if e.MsgID != 0 {
				fmt.Fprintf(&b, " msg=%d", e.MsgID)
			}
			fmt.Fprintf(&b, " clock=%d", e.Clock)
		}
		if e.Message != "" {
			fmt.Fprintf(&b, " %s", e.Message)
		}
		b.WriteString("\n")
	}
	return b.String()
}
