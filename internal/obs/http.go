package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// DebugMux builds the observability HTTP surface:
//
//	/debug/pprof/...  — the standard Go profiling endpoints; CPU profiles
//	                    carry whatever labels callers set (the Store sets none)
//	/debug/vars      — expvar, including the "layeredsg" tracer registry
//	/debug/obs       — the tracer's snapshot (text; ?format=json for JSON)
//	/debug/trace     — drains the tracer's event rings as a JSON array
//	                   (single consumer; see TraceHandler)
//
// A dedicated mux (rather than http.DefaultServeMux) keeps repeated servers
// in one process — tests, multiple trials — from fighting over global
// handler registrations. tracer may be nil: the pprof and vars endpoints
// still work, and the tracer endpoints serve empty results.
func DebugMux(tracer *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/obs", SnapshotHandler(tracer))
	mux.Handle("/debug/trace", TraceHandler(tracer))
	return mux
}

// SnapshotHandler serves the tracer's aggregated metrics, text by default,
// JSON with ?format=json.
func SnapshotHandler(tracer *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := tracer.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = s.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.WriteText(w)
	})
}

// TraceHandler drains the tracer's per-stripe event rings and serves the
// events as a JSON array. Each GET returns only events recorded since the
// previous drain; ?max=N truncates the response to the most recent N.
//
// The endpoint is single-consumer: every GET advances the tracer's shared
// drain cursors (Tracer.Drain), so concurrent or interleaved clients steal
// events from one another, and events truncated away by ?max=N are gone for
// good. Point exactly one collector at it; fan out downstream if several
// readers need the stream.
func TraceHandler(tracer *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := tracer.Drain()
		if maxStr := r.URL.Query().Get("max"); maxStr != "" {
			if max, err := strconv.Atoi(maxStr); err == nil && max >= 0 && max < len(events) {
				events = events[len(events)-max:]
			}
		}
		if events == nil {
			events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(events)
	})
}
