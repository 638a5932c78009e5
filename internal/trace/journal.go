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
// Buffered per lane: Record encodes the event's line and appends it to the
// buffer of its Event.Lane (the emitting shard's index; the sequential world
// and the node pump use lane 0 only), and a buffer goes to the io.Writer in
// one Write when the next line would not fit in its bufferSize bytes. Err,
// Count and Flush first write every lane's buffer out, so Err is
// the barrier a driver calls once the run has stopped emitting: every record
// recorded before it has then reached the io.Writer exactly once, in whole
// lines. A record recorded after the last Err stays buffered, and a crash
// loses at most one buffer per lane. The lines of one lane keep their
// recorded order; lanes interleave by buffer, so a one-lane journal is in
// emission order and a several-lane one (a sharded runtime's) is not —
// SortCausal puts its records in the causal order Join gives them.
//
// Locking: each lane's buffer has its own mutex, taken before the writer
// mutex, which is a leaf held only for the one Write and the count. A line is
// encoded before its lane's lock is taken, so emitters sharing a lane (an
// exit the coordinator commits on its owner's lane) encode in parallel, and
// emitters on different lanes meet only once per buffer. Writer calls nothing
// that locks while holding either. Errors are sticky and reported by Err —
// an event hook has no error return, so the driver checks once at the end;
// after the first failed Write no further buffer is written.
type Writer struct {
	lanes lanes[lineBuffer]
	mu    sync.Mutex //fdp:lockleaf
	w     io.Writer
	s     interface{ Sync() error } // non-nil when the sink can fsync
	err   error
	n     int
}

// lineBuffer is one lane's share of a Writer: whole lines not yet written.
// Padded to a 64-byte allocation, so no two lanes' mutexes share a cache
// line.
type lineBuffer struct {
	mu   sync.Mutex
	b    []byte
	recs int
	_    [24]byte
}

// bufferSize is a lane buffer's capacity: large enough that two shard
// workers meet at the writer mutex once per few hundred records.
const bufferSize = 64 << 10

func newLineBuffer() *lineBuffer { return &lineBuffer{b: make([]byte, 0, bufferSize)} }

// NewWriter writes the header line and returns the journal writer. A header
// write failure is sticky (see Err); the writer then drops every record.
func NewWriter(w io.Writer, hdr Header) *Writer {
	jw := &Writer{w: w, err: writeHeader(w, hdr)}
	jw.s, _ = w.(interface{ Sync() error })
	return jw
}

// Record appends one event to the journal. Safe for concurrent use; usable
// directly as a sim event hook or a parallel runtime event sink.
// Allocation-free after a lane's first event.
func (jw *Writer) Record(e sim.Event) {
	var scratch [256]byte
	line := appendEvent(scratch[:0], &e)
	lb := jw.lanes.get(e.Lane, newLineBuffer)
	lb.mu.Lock()
	if len(lb.b)+len(line) > cap(lb.b) {
		jw.write(lb)
	}
	lb.b = append(lb.b, line...)
	lb.recs++
	lb.mu.Unlock()
}

// write hands lb's lines to the sink in one Write, unless an earlier write
// failed, and empties lb. The caller holds lb.mu.
func (jw *Writer) write(lb *lineBuffer) {
	if len(lb.b) == 0 {
		return
	}
	jw.mu.Lock()
	if jw.err == nil {
		if _, jw.err = jw.w.Write(lb.b); jw.err == nil {
			jw.n += lb.recs
		}
	}
	jw.mu.Unlock()
	lb.b, lb.recs = lb.b[:0], 0
}

// drain writes every lane's buffer out, one lane at a time in lane order.
func (jw *Writer) drain() {
	jw.lanes.each(func(lb *lineBuffer) {
		lb.mu.Lock()
		jw.write(lb)
		lb.mu.Unlock()
	})
}

// Err writes every buffered record out and returns the first write error,
// if any.
func (jw *Writer) Err() error {
	jw.drain()
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.err
}

// Count writes every buffered record out and returns how many records were
// written.
func (jw *Writer) Count() int {
	jw.drain()
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.n
}

// Flush writes every buffered record out and, when the sink has a Sync
// method (an *os.File), syncs it, so a flushed journal survives the
// machine, not just the process: a signal handler calls it before the
// process dies. It returns the sticky error state. Safe for concurrent use
// with Record.
func (jw *Writer) Flush() error {
	jw.drain()
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err == nil && jw.s != nil {
		jw.err = jw.s.Sync()
	}
	return jw.err
}

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
