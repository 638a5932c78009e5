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
// Locking: Writer is a leaf. It takes its own mutex (the runtime's event
// hooks run on many goroutines at once), holds no other lock while writing,
// and calls nothing that locks. Errors are sticky and reported by Err — an
// event hook has no error return, so the driver checks once at the end.
type Writer struct {
	mu  sync.Mutex //fdp:lockleaf
	w   io.Writer
	err error
	n   int
}

// NewWriter writes the header line and returns the journal writer. A header
// write failure is sticky (see Err); the writer then drops every record.
func NewWriter(w io.Writer, hdr Header) *Writer {
	jw := &Writer{w: w}
	jw.err = writeLine(w, hdr)
	return jw
}

// Record appends one event to the journal. Safe for concurrent use; usable
// directly as a sim event hook or a parallel runtime event sink.
func (jw *Writer) Record(e sim.Event) {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return
	}
	if jw.err = writeLine(jw.w, FromEvent(e)); jw.err == nil {
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

// StreamWriter is the crash-safe sibling of Writer: it buffers records
// through a bufio.Writer (a process-journal write must not be one syscall
// per event) and exposes Flush/Close so a signal handler can force the
// buffered tail onto disk before the process dies. If the underlying writer
// has a Sync method (an *os.File), Flush also syncs, so a flushed journal
// survives the machine, not just the process.
//
// Locking: like Writer, StreamWriter is a leaf — it takes only its own
// mutex and calls nothing that locks. Errors are sticky (Err).
type StreamWriter struct {
	mu  sync.Mutex //fdp:lockleaf
	bw  *bufio.Writer
	s   interface{ Sync() error } // non-nil when the sink can fsync
	err error
	n   int
}

// NewStreamWriter writes the header line and returns the buffered journal
// writer. A header write failure is sticky; the writer then drops every
// record.
func NewStreamWriter(w io.Writer, hdr Header) *StreamWriter {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 64*1024)}
	if s, ok := w.(interface{ Sync() error }); ok {
		sw.s = s
	}
	sw.err = writeLine(sw.bw, hdr)
	return sw
}

// Record appends one event. Safe for concurrent use; usable directly as a
// sim event hook.
func (sw *StreamWriter) Record(e sim.Event) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	if sw.err = writeLine(sw.bw, FromEvent(e)); sw.err == nil {
		sw.n++
	}
}

// Flush forces buffered records to the underlying writer and, when the sink
// supports it, to stable storage. It returns the sticky error state.
func (sw *StreamWriter) Flush() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.flushLocked()
}

func (sw *StreamWriter) flushLocked() error {
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

// Err returns the first write error, if any.
func (sw *StreamWriter) Err() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.err
}

// Count returns how many records were written (buffered or flushed).
func (sw *StreamWriter) Count() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.n
}

// writeLine marshals v as one JSONL line. encoding/json emits struct fields
// in declaration order and sorts map keys, so journal bytes are a pure
// function of the values — the property the byte-identical replay check
// rests on.
func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJournal writes a complete journal (header plus records) in exactly
// the format Writer produces — the regeneration path the byte-identical
// replay check compares against.
func WriteJournal(w io.Writer, hdr Header, recs []Record) error {
	if err := writeLine(w, hdr); err != nil {
		return err
	}
	for i := range recs {
		if err := writeLine(w, recs[i]); err != nil {
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
