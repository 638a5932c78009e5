package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServeStopClosesTheListener: Serve answers /metrics until stop, and
// stop closes the listener without reporting that close as an error.
func TestServeStopClosesTheListener(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fdp_test_total", "one test series").Inc()
	var out, errw bytes.Buffer
	stop, err := Serve("127.0.0.1:0", reg, &out, &errw, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer stop() // a second stop is harmless
	var url string
	if _, err := fmt.Sscanf(out.String(), "metrics: %s", &url); err != nil {
		t.Fatalf("endpoint line %q: %v", out.String(), err)
	}
	// No keep-alive: a kept connection would outlive the listener.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), "fdp_test_total 1") {
		t.Fatalf("scrape: %v\n%s", err, body)
	}
	stop()
	if resp, err := client.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("endpoint still answers after stop")
	}
	if errw.Len() != 0 {
		t.Fatalf("clean stop reported %q", errw.String())
	}
}
