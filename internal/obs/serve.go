package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Serve starts an HTTP listener exposing the current registry at
// /metrics (JSON snapshot), plus the standard expvar (/debug/vars) and
// pprof (/debug/pprof/) handlers. It returns the bound address (useful
// with ":0") or an error; the server runs until the process exits.
// cmd/experiments exposes this behind its -obs flag.
func Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := Current().Snapshot()
		if snap == nil {
			snap = &Snapshot{}
		}
		_ = snap.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}
