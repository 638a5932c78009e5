package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"fdp/internal/ref"
)

// ChromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Only the fields this exporter uses
// are modeled.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// chromePid is the single "process" the export uses; engine processes map
// to threads so they stack as swim lanes in one group.
const chromePid = 1

// BuildChrome converts a journal into a Chrome trace: every record becomes
// a complete event ("X", 1µs, one thread lane per engine process, logical
// steps as microseconds) and every departure span an async begin/end pair
// ("b"/"e", category "departure") stretching from the leaver's first
// trigger to its exit or final sleep.
func BuildChrome(hdr Header, recs []Record) ChromeTrace {
	tr := ChromeTrace{
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"engine":   hdr.Engine,
			"scenario": fmt.Sprintf("n=%d %s leave=%g %s variant=%s oracle=%s seed=%d", hdr.Scenario.N, hdr.Scenario.Topology, hdr.Scenario.LeaveFraction, hdr.Scenario.Pattern, hdr.Scenario.Variant, hdr.Scenario.Oracle, hdr.Scenario.Seed),
		},
		// Never null, even for an empty journal: some loaders reject
		// {"traceEvents": null}.
		TraceEvents: []ChromeEvent{},
	}
	// Thread metadata: one named lane per process, ordered by index.
	var procs []string
	seen := make(map[string]bool)
	for i := range recs {
		if p := recs[i].Proc; p != "" && !seen[p] {
			seen[p] = true
			procs = append(procs, p)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procTid(procs[i]) < procTid(procs[j]) })
	for _, p := range procs {
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: procTid(p),
			Args: map[string]any{"name": p},
		})
	}
	// One complete event per record.
	for i := range recs {
		rec := &recs[i]
		name := rec.Kind
		if rec.Label != "" {
			name = rec.Kind + " " + rec.Label
		}
		args := map[string]any{"cid": rec.CID, "clock": rec.Clock}
		if rec.Parent != 0 {
			args["parent"] = rec.Parent
		}
		if rec.MsgID != 0 {
			args["msg"] = rec.MsgID
		}
		if rec.Peer != "" {
			args["peer"] = rec.Peer
		}
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: name, Cat: "event", Ph: "X",
			Ts: int64(rec.Step), Dur: 1,
			Pid: chromePid, Tid: procTid(rec.Proc),
			Args: args,
		})
	}
	// One async span per departure.
	for _, sp := range BuildSpans(recs) {
		state := "in progress"
		if sp.End != nil {
			state = sp.End.Kind
		}
		name := "departure " + sp.Proc
		id := sp.Proc
		tid := procTid(sp.Proc)
		tr.TraceEvents = append(tr.TraceEvents,
			ChromeEvent{
				Name: name, Cat: "departure", Ph: "b", ID: id,
				Ts: int64(sp.StartStep()), Pid: chromePid, Tid: tid,
				Args: map[string]any{"hops": sp.Hops(), "actions": len(sp.Actions), "state": state},
			},
			ChromeEvent{
				Name: name, Cat: "departure", Ph: "e", ID: id,
				Ts: int64(sp.EndStep()), Pid: chromePid, Tid: tid,
			},
		)
	}
	return tr
}

// procTid maps "p7" to thread id 7; unparseable names get lane 0.
func procTid(proc string) int {
	r, err := parseRef(proc)
	if err != nil {
		return 0
	}
	return ref.Index(r) + 1
}

// WriteChrome writes the journal as indented Chrome trace-event JSON.
func WriteChrome(w io.Writer, hdr Header, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(BuildChrome(hdr, recs))
}
