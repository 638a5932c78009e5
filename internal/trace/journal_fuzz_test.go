package trace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fdp/internal/trace"
)

// FuzzReadJournal feeds arbitrary bytes to the journal reader, the consuming
// side of every journal a tool is handed. It must never panic. A journal it
// accepts must re-encode and re-read equal; the intact prefix it returns
// with a *TruncatedError must re-read without error; any other error comes
// with no records. Seeds: the replay goldens whole, cut to a few lines, and
// cut mid-line.
func FuzzReadJournal(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "cmd", "fdpreplay", "testdata", "*.jsonl"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no replay goldens: %v", err)
	}
	for _, g := range goldens {
		data, err := os.ReadFile(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		cut := 0
		for lines := 0; lines < 12 && cut < len(data); cut++ {
			if data[cut] == '\n' {
				lines++
			}
		}
		f.Add(data[:cut])
		f.Add(data[:cut+len(data[cut:])/100])
	}
	hdr := "{\"v\":1,\"engine\":\"node\"}\n"
	for _, s := range []string{"", hdr + "{\"step\":", hdr + "\n{\"step\":1}\n{", hdr + "{\"cid\":1}\n]\n{\"cid\":2}\n"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, err := trace.ReadJournal(bytes.NewReader(data))
		var trunc *trace.TruncatedError
		switch {
		case err == nil:
			rereadEqual(t, hdr, recs)
		case errors.As(err, &trunc):
			if trunc.Records != len(recs) {
				t.Fatalf("TruncatedError counts %d records, %d returned", trunc.Records, len(recs))
			}
			rereadEqual(t, hdr, recs)
		case recs != nil:
			t.Fatalf("error %v returned %d records", err, len(recs))
		}
	})
}

// rereadEqual writes hdr and recs as a journal and reads it back: no error,
// the same header and the same records.
func rereadEqual(t *testing.T, hdr trace.Header, recs []trace.Record) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJournal(&buf, hdr, recs); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	hdr2, recs2, err := trace.ReadJournal(&buf)
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.Bytes())
	}
	// Compared as JSON: a header's empty list and its absent one are the same
	// header.
	h1, _ := json.Marshal(hdr)
	h2, _ := json.Marshal(hdr2)
	if !bytes.Equal(h1, h2) {
		t.Fatalf("header re-reads as %s, was %s", h2, h1)
	}
	if !reflect.DeepEqual(recs, recs2) {
		t.Fatalf("%d records re-read as %d different ones", len(recs), len(recs2))
	}
}
