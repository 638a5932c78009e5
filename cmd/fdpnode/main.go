// Command fdpnode runs one node of a multi-node departure-protocol churn, or
// merges the per-node artifacts of a finished run into a verdict.
//
// Deployment is coordinator-free: every node gets the same scenario flags and
// rebuilds the same global world, keeping the slice it owns (round-robin by
// process index). Peers find each other through -peers; there is no leader.
//
//	fdpnode -id 0 -nodes 3 -listen 127.0.0.1:7450 \
//	        -peers 1=127.0.0.1:7451,2=127.0.0.1:7452 \
//	        -n 12 -topology line -leave 0.4 -seed 42 -out run/
//	fdpnode -merge run/
//
// Run mode writes out/journal-<id>.jsonl (causal event journal, joinable with
// its siblings) and out/summary-<id>.json (final owned-process state). SIGINT
// or SIGTERM winds the node down gracefully: the journal flushes, the summary
// records the interruption, and the exit status stays 0 — partial artifacts
// from an interrupted run are diagnostic input, not an error.
//
// Merge mode reads every summary-*.json and journal-*.jsonl in the directory
// and prints the run verdict: journals must join causally, every leaver must
// have exited with journal evidence, and the survivors must satisfy the
// Lemma 2 connectivity invariant. Exit status 1 on any problem, 2 on I/O or
// usage errors.
//
// -serve ADDR additionally exposes the node's live metrics (per-link
// fdp_transport_* plus per-leaver fdp_progress_*/fdp_stall_*, labeled with
// the node id) and pprof on ADDR for the duration of the run; -hold keeps
// the endpoint up afterwards so a scraper can read the final state. -stall D
// arms the liveness watchdog: a run that makes no departure progress for D
// is classified (livelock / starvation / quiescent-stuck) and the flight
// recorder's recent-event ring is snapshotted to out/flight-<id>.jsonl (a
// joinable journal fragment fdpreplay accepts) next to out/stall-<id>.json.
//
// Scrape mode (fdpnode -scrape addr,addr,...) polls each node's /metrics
// once and prints the per-node liveness series plus a cluster aggregate —
// the quickest way to see which node's leavers are stuck:
//
//	fdpnode -scrape 127.0.0.1:9450,127.0.0.1:9451,127.0.0.1:9452
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fdp/internal/node"
	"fdp/internal/obs"
	"fdp/internal/trace"
	"fdp/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdpnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		merge  = fs.String("merge", "", "merge mode: verify the run artifacts in this directory")
		scrape = fs.String("scrape", "", "scrape mode: aggregate liveness metrics from these node /metrics addresses (comma separated)")

		id     = fs.Int("id", 0, "this node's id, in [0, nodes)")
		nodes  = fs.Int("nodes", 1, "total node count")
		listen = fs.String("listen", "127.0.0.1:0", "address to accept peer frames on")
		peers  = fs.String("peers", "", "peer addresses as id=host:port, comma separated")
		out    = fs.String("out", ".", "directory for journal-<id>.jsonl and summary-<id>.json")

		n       = fs.Int("n", 16, "number of processes")
		topo    = fs.String("topology", "line", "initial topology, by its journal-header name (fdpsim -h lists them)")
		leave   = fs.Float64("leave", 0.5, "fraction of processes leaving")
		pattern = fs.String("pattern", "random", "leaver placement, by its journal-header name (fdpsim -h lists them)")
		variant = fs.String("variant", "fdp", "fdp (exit) or fsp (sleep)")
		seed    = fs.Int64("seed", 1, "scenario seed (identical on every node)")

		timeout    = fs.Duration("timeout", 60*time.Second, "wall-clock budget before the node gives up")
		linger     = fs.Duration("linger", 500*time.Millisecond, "post-agreement drain window for late frames")
		roundEvery = fs.Duration("round-every", 50*time.Millisecond, "oracle snapshot round interval")

		serve = fs.String("serve", "", "serve /metrics (Prometheus text) and /debug/pprof on this address during the run (e.g. 127.0.0.1:9450)")
		hold  = fs.Duration("hold", 0, "keep the -serve endpoint up this long after the run finishes (a signal releases it early)")
		stall = fs.Duration("stall", 0, "arm the liveness watchdog with this window; on stall, write flight-<id>.jsonl and stall-<id>.json to -out")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fdpnode -id I -nodes N -listen ADDR -peers LIST [scenario flags] -out DIR")
		fmt.Fprintln(stderr, "       fdpnode -merge DIR")
		fmt.Fprintln(stderr, "       fdpnode -scrape ADDR[,ADDR...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *merge != "" {
		return runMerge(*merge, stdout, stderr)
	}
	if *scrape != "" {
		return runScrape(*scrape, stdout, stderr)
	}

	scn := trace.Scenario{N: *n, Topology: *topo, LeaveFraction: *leave,
		Pattern: *pattern, Variant: strings.ToUpper(*variant),
		Oracle: "SINGLE", Seed: *seed}

	peerMap, err := parsePeers(*peers, *id, *nodes)
	if err != nil {
		fmt.Fprintln(stderr, "fdpnode:", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "fdpnode:", err)
		return 2
	}
	jf, err := os.Create(filepath.Join(*out, fmt.Sprintf("journal-%d.jsonl", *id)))
	if err != nil {
		fmt.Fprintln(stderr, "fdpnode:", err)
		return 2
	}
	defer jf.Close()

	// One registry per node: the transport's per-link series and the
	// watchdog's per-leaver progress series share the same /metrics page.
	var reg *obs.Registry
	if *serve != "" {
		reg = obs.NewRegistry()
	}
	onStall := func(rep *obs.StallReport) {
		fmt.Fprintf(stderr, "fdpnode: node %d stalled: %s (%d flight records, complete=%v)\n",
			*id, rep.Verdict.Kind, len(rep.Flight), rep.Complete)
		fp := filepath.Join(*out, fmt.Sprintf("flight-%d.jsonl", *id))
		ff, err := os.Create(fp)
		if err == nil {
			err = trace.WriteJournal(ff, rep.Header, rep.Flight)
			if cerr := ff.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "fdpnode: flight dump:", err)
		}
		vb, err := json.MarshalIndent(rep.Verdict, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(*out, fmt.Sprintf("stall-%d.json", *id)), append(vb, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "fdpnode: stall verdict:", err)
		}
	}
	nd, err := node.New(node.Config{ID: *id, Nodes: *nodes, Scenario: scn,
		Journal: jf, MaxWall: *timeout, Linger: *linger, RoundEvery: *roundEvery,
		Metrics: reg, StallWindow: *stall, OnStall: onStall})
	if err != nil {
		fmt.Fprintln(stderr, "fdpnode:", err)
		return 2
	}
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self: transport.NodeID(*id), Listen: *listen, Peers: peerMap, Handler: nd,
		Metrics: reg})
	if err != nil {
		fmt.Fprintln(stderr, "fdpnode:", err)
		return 2
	}
	defer tr.Close()
	if *serve != "" {
		stopServe, err := obs.Serve(*serve, reg, stdout, stderr, "fdpnode")
		if err != nil {
			fmt.Fprintln(stderr, "fdpnode: -serve:", err)
			return 2
		}
		defer stopServe()
	}
	fmt.Fprintf(stdout, "node %d/%d listening on %s (n=%d seed=%d)\n", *id, *nodes, tr.Addr(), *n, *seed)

	// Graceful shutdown: first signal stops the pump, which flushes the
	// journal and writes the summary on its way out; the immediate Interrupt
	// flush bounds the data at risk if the pump is slow to notice. A second
	// signal kills the process the traditional way.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(stderr, "fdpnode: signal received, winding down")
		nd.Interrupt()
		close(stop)
		<-sigc
		os.Exit(130)
	}()

	res := nd.Run(tr, stop)
	if err := jf.Sync(); err != nil {
		fmt.Fprintln(stderr, "fdpnode: journal sync:", err)
	}

	sb, err := json.MarshalIndent(res.Summary, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "fdpnode:", err)
		return 2
	}
	sumPath := filepath.Join(*out, fmt.Sprintf("summary-%d.json", *id))
	if err := os.WriteFile(sumPath, append(sb, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "fdpnode:", err)
		return 2
	}

	if *serve != "" && *hold > 0 {
		// Keep the final metric values scrapeable; a signal releases the
		// hold early so supervised runs (the Makefile's node-churn) can
		// wind the fleet down without waiting it out.
		fmt.Fprintf(stdout, "holding -serve endpoint for %v\n", *hold)
		select {
		case <-time.After(*hold):
		case <-stop:
		}
	}

	switch {
	case res.Summary.Interrupted:
		fmt.Fprintf(stdout, "node %d interrupted after %d steps (journal flushed)\n", *id, res.Summary.Steps)
		return 0
	case res.Summary.TimedOut:
		fmt.Fprintf(stdout, "node %d timed out after %d steps: %d/%d owned leavers exited\n",
			*id, res.Summary.Steps, len(res.Summary.Exited), len(res.Summary.Leavers))
		return 1
	default:
		fmt.Fprintf(stdout, "node %d done: %d steps, %d/%d owned leavers exited\n",
			*id, res.Summary.Steps, len(res.Summary.Exited), len(res.Summary.Leavers))
		return 0
	}
}

// parsePeers decodes "1=host:port,2=host:port" and demands exactly the other
// nodes' ids — a missing or surplus peer is a deployment typo worth refusing.
func parsePeers(s string, self, nodes int) (map[transport.NodeID]string, error) {
	m := make(map[transport.NodeID]string)
	if s != "" {
		for _, part := range strings.Split(s, ",") {
			id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return nil, fmt.Errorf("-peers entry %q is not id=addr", part)
			}
			pid, err := strconv.Atoi(id)
			if err != nil || pid < 0 || pid >= nodes {
				return nil, fmt.Errorf("-peers id %q out of range for %d nodes", id, nodes)
			}
			if pid == self {
				return nil, fmt.Errorf("-peers lists this node's own id %d", pid)
			}
			m[transport.NodeID(pid)] = addr
		}
	}
	if len(m) != nodes-1 {
		return nil, fmt.Errorf("-peers has %d entries, want %d (every node but this one)", len(m), nodes-1)
	}
	return m, nil
}

// runScrape polls each address's /metrics once, echoes the liveness and
// transport series per node, and prints a cluster aggregate: the sum of
// leavers remaining across nodes is the run's distance from Lemma 3. Exit
// status 2 if any node cannot be scraped.
func runScrape(list string, stdout, stderr io.Writer) int {
	client := &http.Client{Timeout: 5 * time.Second}
	var (
		remaining, grants, denials float64
		failed                     bool
	)
	for _, a := range strings.Split(list, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		resp, err := client.Get("http://" + a + "/metrics")
		if err != nil {
			fmt.Fprintf(stderr, "fdpnode: scrape %s: %v\n", a, err)
			failed = true
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s", resp.Status)
		}
		if err != nil {
			fmt.Fprintf(stderr, "fdpnode: scrape %s: %v\n", a, err)
			failed = true
			continue
		}
		fmt.Fprintf(stdout, "# node %s\n", a)
		for _, line := range strings.Split(string(body), "\n") {
			if !strings.HasPrefix(line, "fdp_progress_") && !strings.HasPrefix(line, "fdp_stall_") &&
				!strings.HasPrefix(line, "fdp_transport_frames_total") && !strings.HasPrefix(line, "fdp_transport_rejected_total") {
				continue
			}
			fmt.Fprintln(stdout, line)
			name, v, ok := parseSample(line)
			if !ok {
				continue
			}
			switch name {
			case obs.MetricProgressLeavers:
				remaining += v
			case obs.MetricProgressGrants:
				grants += v
			case obs.MetricProgressDenials:
				denials += v
			}
		}
	}
	fmt.Fprintf(stdout, "# cluster: leavers_remaining=%g grants=%g denials=%g\n", remaining, grants, denials)
	if failed {
		return 2
	}
	return 0
}

// parseSample splits one Prometheus text line into its metric name (label
// block stripped) and value.
func parseSample(line string) (string, float64, bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
	if err != nil {
		return "", 0, false
	}
	name := line[:sp]
	if b := strings.IndexByte(name, '{'); b >= 0 {
		name = name[:b]
	}
	return name, v, true
}

// runMerge reads a run directory and prints the merged verdict.
func runMerge(dir string, stdout, stderr io.Writer) int {
	sumPaths, err := filepath.Glob(filepath.Join(dir, "summary-*.json"))
	if err != nil || len(sumPaths) == 0 {
		fmt.Fprintf(stderr, "fdpnode: no summary-*.json in %s\n", dir)
		return 2
	}
	sort.Strings(sumPaths)
	var (
		hdrs  []trace.Header
		parts [][]trace.Record
		sums  []node.Summary
	)
	for _, sp := range sumPaths {
		b, err := os.ReadFile(sp)
		if err != nil {
			fmt.Fprintln(stderr, "fdpnode:", err)
			return 2
		}
		var s node.Summary
		if err := json.Unmarshal(b, &s); err != nil {
			fmt.Fprintf(stderr, "fdpnode: %s: %v\n", sp, err)
			return 2
		}
		jp := filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", s.Node))
		jf, err := os.Open(jp)
		if err != nil {
			fmt.Fprintln(stderr, "fdpnode:", err)
			return 2
		}
		hdr, recs, err := trace.ReadJournal(jf)
		jf.Close()
		var trunc *trace.TruncatedError
		if errors.As(err, &trunc) {
			// A torn tail means the node died mid-write; the intact prefix
			// still joins, and the verdict will flag the interruption.
			fmt.Fprintf(stdout, "warning: %s truncated at line %d; using %d intact records (last cid %d)\n",
				jp, trunc.Line, trunc.Records, trunc.LastCID)
		} else if err != nil {
			fmt.Fprintf(stderr, "fdpnode: %s: %v\n", jp, err)
			return 2
		}
		hdrs = append(hdrs, hdr)
		parts = append(parts, recs)
		sums = append(sums, s)
	}

	v, err := node.Verify(hdrs, parts, sums)
	if err != nil {
		fmt.Fprintln(stderr, "fdpnode:", err)
		return 2
	}
	fmt.Fprintf(stdout, "nodes:      %d\n", v.Nodes)
	fmt.Fprintf(stdout, "records:    %d joined (%d sends, %d delivers, %d duplicates)\n",
		len(v.Joined.Records), v.Joined.Sends, v.Joined.Delivers, v.Joined.Duplicates)
	fmt.Fprintf(stdout, "converged:  %v\n", v.Converged)
	for _, p := range v.Problems {
		fmt.Fprintf(stdout, "problem:    %s\n", p)
	}
	if !v.Converged {
		return 1
	}
	return 0
}
