package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"fdp/internal/sim"
)

// Writer appends a journal to an io.Writer: one JSON header line followed by
// one JSON record line per event. Record is hook-shaped — install it with
// AddEventHook on either engine.
//
// Write-through by contract: every record is handed to the io.Writer, whole,
// in one Write call before Record returns. Writer has no Flush; a sink that
// should batch wraps itself (StreamWriter).
//
// Locking: Writer is a leaf. A record is encoded into a pooled buffer before
// the mutex is taken, so the runtime's shard workers — event hooks run on
// many goroutines at once — encode in parallel; the mutex is held only for
// the one Write and the count, which is what keeps lines from interleaving.
// Writer holds no other lock while writing and calls nothing that locks.
// Errors are sticky and reported by Err — an event hook has no error return,
// so the driver checks once at the end.
type Writer struct {
	mu  sync.Mutex //fdp:lockleaf
	w   io.Writer
	err error
	n   int
}

// linePool recycles record-line buffers across Record calls and goroutines.
var linePool = sync.Pool{New: func() any { return new([]byte) }}

// NewWriter writes the header line and returns the journal writer. A header
// write failure is sticky (see Err); the writer then drops every record.
func NewWriter(w io.Writer, hdr Header) *Writer {
	return &Writer{w: w, err: writeHeader(w, hdr)}
}

// Record appends one event to the journal. Safe for concurrent use; usable
// directly as a sim event hook or a parallel runtime event sink.
// Allocation-free once the pool is warm.
func (jw *Writer) Record(e sim.Event) {
	bp := linePool.Get().(*[]byte)
	*bp = appendEvent((*bp)[:0], &e)
	jw.writeLine(*bp)
	linePool.Put(bp)
}

// writeLine hands one encoded line to the sink unless an earlier write
// failed.
func (jw *Writer) writeLine(line []byte) {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return
	}
	if _, jw.err = jw.w.Write(line); jw.err == nil {
		jw.n++
	}
}

// Err returns the first write error, if any.
func (jw *Writer) Err() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.err
}

// Count returns how many records were written.
func (jw *Writer) Count() int {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.n
}

// StreamWriter is the crash-safe sibling of Writer: a Writer over a
// bufio.Writer (a process-journal write must not be one syscall per event)
// that exposes Flush/Close so a signal handler can force the buffered tail
// onto disk before the process dies. If the underlying writer has a Sync
// method (an *os.File), Flush also syncs, so a flushed journal survives the
// machine, not just the process. Count includes buffered records.
//
// Locking: Writer's — Flush takes the same leaf mutex Record writes under.
type StreamWriter struct {
	Writer
	bw *bufio.Writer
	s  interface{ Sync() error } // non-nil when the sink can fsync
}

// NewStreamWriter writes the header line and returns the buffered journal
// writer. A header write failure is sticky; the writer then drops every
// record.
func NewStreamWriter(w io.Writer, hdr Header) *StreamWriter {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 64*1024)}
	sw.s, _ = w.(interface{ Sync() error })
	sw.w = sw.bw
	sw.err = writeHeader(sw.bw, hdr)
	return sw
}

// Flush forces buffered records to the underlying writer and, when the sink
// supports it, to stable storage. It returns the sticky error state.
func (sw *StreamWriter) Flush() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return sw.err
	}
	if sw.err = sw.bw.Flush(); sw.err == nil && sw.s != nil {
		sw.err = sw.s.Sync()
	}
	return sw.err
}

// Close flushes; the caller owns (and closes) the underlying file.
func (sw *StreamWriter) Close() error { return sw.Flush() }

// writeHeader marshals hdr as the journal's first line. encoding/json emits
// struct fields in declaration order and sorts map keys, so the header's
// bytes are a pure function of its values, as the record lines' are
// (encode.go) — the property the byte-identical replay check rests on.
func writeHeader(w io.Writer, hdr Header) error {
	b, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteJournal writes a complete journal (header plus records) in exactly
// the format Writer produces — the regeneration path the byte-identical
// replay check compares against.
func WriteJournal(w io.Writer, hdr Header, recs []Record) error {
	if err := writeHeader(w, hdr); err != nil {
		return err
	}
	var line []byte
	for i := range recs {
		line = appendRecord(line[:0], &recs[i])
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// TruncatedError reports a journal whose final line did not parse — the
// signature of a writer killed mid-line (crash, SIGKILL, full disk). The
// valid prefix is still returned alongside it, so tools can diagnose how far
// the run got: Records valid records survive, the last of which has causal
// identity LastCID. A parse failure with intact lines after it is NOT
// truncation — that is corruption, reported as a plain error.
type TruncatedError struct {
	// Line is the 1-based line number of the unparseable tail line.
	Line int
	// Records is how many valid records precede the truncation point.
	Records int
	// LastCID is the causal identity of the last fully written record
	// (0 when the journal truncated before any record survived).
	LastCID uint64
	// Err is the underlying parse error.
	Err error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("trace: journal truncated at line %d (%d intact records, last cid %d): %v",
		e.Line, e.Records, e.LastCID, e.Err)
}

func (e *TruncatedError) Unwrap() error { return e.Err }

// ReadJournal parses a journal stream: the header line, then every record.
// A journal whose final line fails to parse (a writer killed mid-line)
// returns the intact prefix together with a *TruncatedError, so callers
// choose between rejecting the journal and diagnosing the crashed run; any
// other parse failure is a plain error with no records.
func ReadJournal(r io.Reader) (Header, []Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var hdr Header
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, err
		}
		return hdr, nil, fmt.Errorf("trace: empty journal")
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("trace: bad journal header: %w", err)
	}
	if hdr.Version != Version {
		return hdr, nil, fmt.Errorf("trace: journal version %d, want %d", hdr.Version, Version)
	}
	if hdr.Engine != EngineSim && hdr.Engine != EngineRuntime && hdr.Engine != EngineNode {
		return hdr, nil, fmt.Errorf("trace: unknown journal engine %q", hdr.Engine)
	}
	var recs []Record
	var trunc *TruncatedError
	for line := 2; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			if trunc == nil {
				trunc = &TruncatedError{Line: line, Err: err}
			}
			continue
		}
		if trunc != nil {
			// An intact record after the bad line: the failure was not a
			// torn tail write.
			return hdr, nil, fmt.Errorf("trace: bad journal record on line %d: %w", trunc.Line, trunc.Err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, err
	}
	if trunc != nil {
		trunc.Records = len(recs)
		if len(recs) > 0 {
			trunc.LastCID = recs[len(recs)-1].CID
		}
		return hdr, recs, trunc
	}
	return hdr, recs, nil
}
