// Command fdpreplay inspects causal event journals recorded with the
// -journal flag of fdpsim, fdpbench or fdpsweep (see internal/trace).
//
// Modes:
//
//	fdpreplay journal.jsonl              # re-drive the recorded run, verify byte-identical
//	fdpreplay -diff a.jsonl b.jsonl      # align two journals by causal ID, report first divergence
//	fdpreplay -spans journal.jsonl       # render per-leaver departure span trees
//	fdpreplay -chrome journal.jsonl      # export Chrome trace-event JSON (Perfetto / chrome://tracing)
//	fdpreplay -join j0.jsonl j1.jsonl …  # join per-node journals into one causal order
//	fdpreplay -join runtime.jsonl        # check one runtime journal the same way
//
// A journal whose final line was torn off mid-write (crash, SIGKILL, full
// disk) is diagnosed, not rejected: verify mode reports the truncation point
// by causal ID and fails; the inspection modes warn and work on the intact
// prefix.
//
// Exit status: 0 on success, 1 on divergence or failed verification, 2 on
// usage or I/O errors.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fdp/internal/trace"

	// Registers the fuzzer's mutant oracles so their journals replay here
	// too — the mutation-test harness verifies its shrunk counterexamples
	// with this command.
	_ "fdp/internal/fuzz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdpreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		diff   = fs.Bool("diff", false, "align two journals by causal ID and report the first diverging event")
		strict = fs.Bool("strict", false, "with -diff: also compare timing fields (step, clock, ages), not just causal structure")
		spans  = fs.Bool("spans", false, "render per-leaver departure span trees instead of verifying")
		chrome = fs.Bool("chrome", false, "export the journal as Chrome trace-event JSON")
		join   = fs.Bool("join", false, "join per-node journals of one multi-node run, or check one runtime journal, in a single causal order")
		out    = fs.String("o", "", "write -chrome or -join output to this file instead of stdout")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fdpreplay [-spans|-chrome [-o out.json]] journal.jsonl")
		fmt.Fprintln(stderr, "       fdpreplay -diff [-strict] a.jsonl b.jsonl")
		fmt.Fprintln(stderr, "       fdpreplay -join [-o joined.jsonl] journal-0.jsonl journal-1.jsonl ... | runtime.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *join:
		if fs.NArg() < 1 {
			fs.Usage()
			return 2
		}
		return runJoin(fs.Args(), *out, stdout, stderr)
	case *diff:
		if fs.NArg() != 2 {
			fs.Usage()
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), *strict, stdout, stderr)
	case *spans:
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		return runSpans(fs.Arg(0), stdout, stderr)
	case *chrome:
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		return runChrome(fs.Arg(0), *out, stdout, stderr)
	default:
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		return runVerify(fs.Arg(0), stdout, stderr)
	}
}

// loadJournal reads one journal. A truncated tail (writer killed mid-line) is
// not fatal here: the caller gets the intact prefix plus the truncation
// diagnosis and decides — inspection modes warn and proceed, verification
// refuses. A runtime journal's records come back in causal order: its writer
// interleaves the shards' lanes by buffer, and the spans and the Chrome trace
// are built in record order.
func loadJournal(path string, stderr io.Writer) (trace.Header, []trace.Record, []byte, *trace.TruncatedError, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "fdpreplay:", err)
		return trace.Header{}, nil, nil, nil, false
	}
	hdr, recs, err := trace.ReadJournal(bytes.NewReader(raw))
	if hdr.Engine == trace.EngineRuntime {
		trace.SortCausal(recs)
	}
	var trunc *trace.TruncatedError
	if errors.As(err, &trunc) {
		return hdr, recs, raw, trunc, true
	}
	if err != nil {
		fmt.Fprintf(stderr, "fdpreplay: %s: %v\n", path, err)
		return trace.Header{}, nil, nil, nil, false
	}
	return hdr, recs, raw, nil, true
}

// warnTrunc reports a truncated journal on stderr for the modes that proceed
// with the intact prefix anyway.
func warnTrunc(path string, trunc *trace.TruncatedError, stderr io.Writer) {
	if trunc != nil {
		fmt.Fprintf(stderr, "fdpreplay: warning: %s truncated at line %d; continuing with %d intact records (last cid %d)\n",
			path, trunc.Line, trunc.Records, trunc.LastCID)
	}
}

// runVerify re-drives the recorded sequential run from the journal's
// scenario header and recorded schedule, then demands the regenerated
// journal be byte-identical to the recording — the replay determinism
// contract of DESIGN.md §11.
func runVerify(path string, stdout, stderr io.Writer) int {
	hdr, recs, raw, trunc, ok := loadJournal(path, stderr)
	if !ok {
		return 2
	}
	if trunc != nil {
		// A torn tail cannot verify byte-identical, but the diagnosis is the
		// useful part: how far the crashed run provably got.
		fmt.Fprintf(stdout, "journal TRUNCATED: %d intact records end at cid %d (line %d torn mid-write)\n",
			trunc.Records, trunc.LastCID, trunc.Line)
		return 1
	}
	replayed, err := trace.Replay(hdr, recs)
	if err != nil {
		fmt.Fprintf(stderr, "fdpreplay: %s: %v\n", path, err)
		return 2
	}
	if div := trace.DiffStrict(recs, replayed); div != nil {
		fmt.Fprintf(stdout, "replay DIVERGED: %s\n", div)
		return 1
	}
	var regen bytes.Buffer
	if err := trace.WriteJournal(&regen, hdr, replayed); err != nil {
		fmt.Fprintln(stderr, "fdpreplay:", err)
		return 2
	}
	if !bytes.Equal(raw, regen.Bytes()) {
		fmt.Fprintf(stdout, "replay DIVERGED: records match but serialized journal differs (%d vs %d bytes)\n",
			len(raw), regen.Len())
		return 1
	}
	fmt.Fprintf(stdout, "replay OK: %d records byte-identical (engine=%s n=%d seed=%d)\n",
		len(recs), hdr.Engine, hdr.Scenario.N, hdr.Scenario.Seed)
	return 0
}

func runDiff(pathA, pathB string, strict bool, stdout, stderr io.Writer) int {
	_, a, _, ta, ok := loadJournal(pathA, stderr)
	if !ok {
		return 2
	}
	warnTrunc(pathA, ta, stderr)
	_, b, _, tb, ok := loadJournal(pathB, stderr)
	if !ok {
		return 2
	}
	warnTrunc(pathB, tb, stderr)
	div := trace.Diff(a, b)
	if strict && div == nil {
		div = trace.DiffStrict(a, b)
	}
	if div != nil {
		fmt.Fprintf(stdout, "journals diverge: %s\n", div)
		return 1
	}
	fmt.Fprintf(stdout, "journals causally identical (%d and %d records)\n", len(a), len(b))
	return 0
}

func runSpans(path string, stdout, stderr io.Writer) int {
	_, recs, _, trunc, ok := loadJournal(path, stderr)
	if !ok {
		return 2
	}
	warnTrunc(path, trunc, stderr)
	sp := trace.BuildSpans(recs)
	fmt.Fprintf(stdout, "%d departure span(s)\n", len(sp))
	io.WriteString(stdout, trace.SpanTrees(sp))
	return 0
}

// runJoin merges the per-node journals of one multi-node run (or takes one
// runtime journal) into a single causally ordered journal and reports
// causal invariant violations.
func runJoin(paths []string, outPath string, stdout, stderr io.Writer) int {
	hdrs := make([]trace.Header, len(paths))
	parts := make([][]trace.Record, len(paths))
	for i, p := range paths {
		hdr, recs, _, trunc, ok := loadJournal(p, stderr)
		if !ok {
			return 2
		}
		warnTrunc(p, trunc, stderr)
		hdrs[i], parts[i] = hdr, recs
	}
	j, err := trace.Join(hdrs, parts)
	if err != nil {
		fmt.Fprintln(stderr, "fdpreplay:", err)
		return 2
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(stderr, "fdpreplay:", err)
			return 2
		}
		defer f.Close()
		// The joined header keeps node 0's identity; Nodes says how many
		// journals went in.
		if err := trace.WriteJournal(f, hdrs[0], j.Records); err != nil {
			fmt.Fprintln(stderr, "fdpreplay:", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "joined %d journals: %d records, %d sends, %d delivers, %d duplicates\n",
		j.Nodes, len(j.Records), j.Sends, j.Delivers, j.Duplicates)
	for _, p := range j.Problems {
		fmt.Fprintf(stdout, "problem: %s\n", p)
	}
	if len(j.Problems) > 0 {
		return 1
	}
	return 0
}

func runChrome(path, outPath string, stdout, stderr io.Writer) int {
	hdr, recs, _, trunc, ok := loadJournal(path, stderr)
	if !ok {
		return 2
	}
	warnTrunc(path, trunc, stderr)
	w := stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(stderr, "fdpreplay:", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteChrome(w, hdr, recs); err != nil {
		fmt.Fprintln(stderr, "fdpreplay:", err)
		return 2
	}
	return 0
}
