package obs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing the registry in the Prometheus
// text format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// NewServeMux returns a mux serving the registry under /metrics and the
// standard net/http/pprof profiles under /debug/pprof/ — the endpoint Serve
// binds.
func NewServeMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve is the -serve flag of cmd/fdpsim, cmd/fdpbench and cmd/fdpnode: it
// listens on addr, prints the endpoint to out and serves NewServeMux(r) on a
// goroutine; stop closes the listener and returns once that goroutine has.
// A serve error other than that close goes to errw, prefixed with prog.
func Serve(addr string, r *Registry, out, errw io.Writer, prog string) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "metrics: http://%s/metrics (pprof at /debug/pprof/)\n", ln.Addr())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := http.Serve(ln, NewServeMux(r)); !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(errw, "%s: -serve: %v\n", prog, err)
		}
	}()
	return func() { ln.Close(); <-done }, nil
}
