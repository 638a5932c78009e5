package node

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fdp/internal/graph"
	"fdp/internal/ref"
	"fdp/internal/sim"
	"fdp/internal/trace"
)

// ProcState is one live process's final state as its owner saw it: enough
// to rebuild this node's slice of the final process graph (explicit edges
// from stored references, implicit ones from queued messages).
type ProcState struct {
	Index  int    `json:"i"`
	Mode   string `json:"mode"`
	Stored []int  `json:"stored,omitempty"`
	Queued []int  `json:"queued,omitempty"`
}

// Summary is one node's end-of-run report. The merge step (Verify) stitches
// all nodes' summaries and journals into the run verdict.
type Summary struct {
	Node        int  `json:"node"`
	Nodes       int  `json:"nodes"`
	Interrupted bool `json:"interrupted,omitempty"`
	TimedOut    bool `json:"timed_out,omitempty"`
	Steps       int  `json:"steps"`
	// Leavers are the owned leaver indexes; Exited the owned indexes that
	// executed exit (a non-leaver here is itself a verdict problem).
	Leavers []int `json:"leavers"`
	Exited  []int `json:"exited"`
	// Live is every owned process still present, with its final edges.
	Live []ProcState `json:"live"`
	// Stall and StallStep record the liveness watchdog's first verdict on
	// this node ("" = no stall observed; see obs.StallKind). Informational:
	// a transient stall that later resolved still shows here.
	Stall     string `json:"stall,omitempty"`
	StallStep int    `json:"stall_step,omitempty"`
}

// buildSummary snapshots the node's final state on the pump goroutine.
func (n *Node) buildSummary(interrupted, timedOut bool) Summary {
	s := Summary{Node: n.cfg.ID, Nodes: n.cfg.Nodes,
		Interrupted: interrupted, TimedOut: timedOut, Steps: n.steps,
		Leavers: []int{}, Exited: []int{}, Live: []ProcState{}}
	if n.watch != nil && n.watch.Stall() != nil {
		v := n.watch.Stall().Verdict
		s.Stall, s.StallStep = v.Kind.String(), int(v.Step)
	}
	for _, r := range n.ownedLeave {
		s.Leavers = append(s.Leavers, ref.Index(r))
	}
	for _, r := range n.owned {
		if n.world.LifeOf(r) == sim.Gone {
			s.Exited = append(s.Exited, ref.Index(r))
			continue
		}
		ps := ProcState{Index: ref.Index(r), Mode: n.world.ModeOf(r).String()}
		for _, w := range n.world.ProtocolOf(r).Refs() {
			ps.Stored = append(ps.Stored, ref.Index(w))
		}
		for _, m := range n.world.ChannelSnapshot(r) {
			for _, ri := range m.Refs {
				ps.Queued = append(ps.Queued, ref.Index(ri.Ref))
			}
		}
		slices.Sort(ps.Stored)
		slices.Sort(ps.Queued)
		ps.Stored, ps.Queued = slices.Compact(ps.Stored), slices.Compact(ps.Queued)
		s.Live = append(s.Live, ps)
	}
	return s
}

// Verdict is the merged outcome of a multi-node run.
type Verdict struct {
	Nodes     int
	Converged bool
	// Problems lists every verdict failure in human terms; empty means the
	// run satisfied Lemma 3 (all leavers exited, with journal evidence) and
	// Lemma 2 (surviving relevant processes weakly connected per initial
	// component).
	Problems []string
	Joined   *trace.Joined
}

// Verify merges per-node journals and summaries into the run verdict:
// journals must join causally (trace.Join), every node must have finished
// cleanly, every leaver must be gone with an exit record, no stayer may be
// gone, and the survivors' process graph must keep each initial component
// weakly connected.
func Verify(hdrs []trace.Header, parts [][]trace.Record, sums []Summary) (*Verdict, error) {
	if len(sums) == 0 || len(hdrs) != len(sums) {
		return nil, fmt.Errorf("node: %d journals but %d summaries", len(hdrs), len(sums))
	}
	nodes := sums[0].Nodes
	byNode := make([]*Summary, nodes)
	for i := range sums {
		s := &sums[i]
		if s.Nodes != nodes || s.Node < 0 || s.Node >= nodes {
			return nil, fmt.Errorf("node: summary %d/%d inconsistent with %d-node run", s.Node, s.Nodes, nodes)
		}
		if byNode[s.Node] != nil {
			return nil, fmt.Errorf("node: two summaries for node %d", s.Node)
		}
		byNode[s.Node] = s
	}
	for i, s := range byNode {
		if s == nil {
			return nil, fmt.Errorf("node: no summary for node %d", i)
		}
	}

	joined, err := trace.Join(hdrs, parts)
	if err != nil {
		return nil, err
	}
	v := &Verdict{Nodes: nodes, Joined: joined}
	v.Problems = append(v.Problems, joined.Problems...)

	// Rebuild the shared scenario for the global leaver set and the initial
	// components — the same pure construction every node ran.
	global, err := hdrs[0].Scenario.BuildScenario()
	if err != nil {
		return nil, err
	}
	var leavers []int // in index order
	for _, r := range global.LeavingNodes() {
		leavers = append(leavers, ref.Index(r))
	}
	slices.Sort(leavers)

	exitRec := make(map[int]bool)
	for _, r := range joined.Records {
		if r.Kind == "exit" {
			if i, ok := parseProc(r.Proc); ok {
				exitRec[i] = true
			}
		}
	}

	live := make(map[int]*ProcState)
	exited := make(map[int]bool)
	for _, s := range byNode {
		if s.Interrupted {
			v.Problems = append(v.Problems, fmt.Sprintf("node %d was interrupted", s.Node))
		}
		if s.TimedOut {
			v.Problems = append(v.Problems, fmt.Sprintf("node %d timed out", s.Node))
		}
		for _, i := range s.Exited {
			exited[i] = true
			if _, leaver := slices.BinarySearch(leavers, i); !leaver {
				v.Problems = append(v.Problems, fmt.Sprintf("staying process p%d exited on node %d", i+1, s.Node))
			}
			if !exitRec[i] {
				v.Problems = append(v.Problems, fmt.Sprintf("p%d reported exited but no exit record in any journal", i+1))
			}
		}
		for pi := range s.Live {
			p := &s.Live[pi]
			live[p.Index] = p
		}
	}
	// Lemma 3 (the run's goal): every leaver gone. Report in index order.
	for _, i := range leavers {
		if !exited[i] && live[i] == nil {
			v.Problems = append(v.Problems, fmt.Sprintf("leaver p%d unaccounted for (neither live nor exited)", i+1))
		}
	}
	for _, i := range leavers {
		if !exited[i] {
			v.Problems = append(v.Problems, fmt.Sprintf("leaver p%d did not exit", i+1))
		}
	}

	// Lemma 2 on the final state: the surviving processes of each initial
	// component must stay weakly connected through stored or queued
	// references between live processes of the run.
	var uf graph.UnionFind
	uf.Reset(len(global.Nodes))
	inRun := func(i int) bool { return i >= 0 && i < len(global.Nodes) && live[i] != nil }
	for _, s := range byNode {
		for _, p := range s.Live {
			for _, w := range slices.Concat(p.Stored, p.Queued) {
				if inRun(p.Index) && inRun(w) {
					uf.Union(ref.ByIndex(p.Index), ref.ByIndex(w))
				}
			}
		}
	}
	for _, comp := range global.Initial.WeaklyConnectedComponents() {
		var members []int
		for _, r := range comp {
			if i := ref.Index(r); live[i] != nil {
				members = append(members, i)
			}
		}
		slices.Sort(members)
		for _, m := range members[min(1, len(members)):] {
			if !uf.Same(ref.ByIndex(m), ref.ByIndex(members[0])) {
				v.Problems = append(v.Problems, fmt.Sprintf(
					"Lemma 2 violated: p%d disconnected from p%d in its initial component", m+1, members[0]+1))
			}
		}
	}

	v.Converged = len(v.Problems) == 0
	return v, nil
}

// parseProc maps a journal proc name ("p3") back to its process index (2).
func parseProc(s string) (int, bool) {
	if !strings.HasPrefix(s, "p") {
		return 0, false
	}
	id, err := strconv.Atoi(s[1:])
	if err != nil || id < 1 {
		return 0, false
	}
	return id - 1, true
}
