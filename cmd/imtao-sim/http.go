package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"

	"imtao"
)

// simState tracks the run lifecycle for /healthz: "running" while the
// pipeline executes, "serving" once the report is done and the process only
// keeps the diagnostics listener alive.
var simState atomic.Value // string

func setSimState(s string) { simState.Store(s) }

func currentSimState() string {
	if s, ok := simState.Load().(string); ok {
		return s
	}
	return "starting"
}

// obsMux builds the diagnostics handler served by -listen: a Prometheus
// text-format snapshot of the pipeline metrics at /metrics, a liveness
// probe at /healthz, the standard Go profiler endpoints under
// /debug/pprof/, and — when a flight recorder is running (-flight) — an
// on-demand ring dump at /debug/flightrecorder. sampler, when non-nil, adds
// its liveness to /healthz.
func obsMux(rec *imtao.FlightRecorder, sampler *imtao.RuntimeSampler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		state := currentSimState()
		samplerLive := sampler != nil && sampler.Running()
		// 503 only when the watchdog itself is dead: a requested sampler
		// that stopped means the process is wedged enough to distrust.
		if sampler != nil && !samplerLive {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "{\"status\":%q,\"sampler\":%v}\n", state, samplerLive)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := imtao.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "flight recorder disabled; run with -flight N", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if _, err := rec.WriteTo(w); err != nil {
			// Headers are gone; all we can do is log.
			fmt.Fprintln(os.Stderr, "imtao-sim: flightrecorder dump:", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "imtao-sim diagnostics\n\n/metrics              Prometheus text snapshot\n/healthz              run state + sampler liveness\n/debug/flightrecorder last telemetry events (with -flight)\n/debug/pprof/         Go profiler index\n")
	})
	return mux
}

// serveObs starts the diagnostics listener in the background and returns
// the bound address.
func serveObs(addr string, rec *imtao.FlightRecorder, sampler *imtao.RuntimeSampler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := http.Serve(ln, obsMux(rec, sampler)); err != nil {
			fmt.Fprintln(os.Stderr, "imtao-sim: serve:", err)
		}
	}()
	return ln.Addr().String(), nil
}
