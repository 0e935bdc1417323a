// The HTTP side of package wire distinguishes liveness from readiness:
//
//   - /healthz is pure liveness. It answers "ok" whenever the process can
//     serve an HTTP request at all, and nothing else — a deadlocked broker
//     with a live HTTP listener still answers. Point process supervisors
//     (restart-on-failure) here: restarting on readiness would bounce a
//     server that is merely draining or briefly degraded.
//   - /readyz is readiness. It serves the snapshot its owner builds
//     (internal/server: starting or serving, the store's failure state,
//     the publish path's heartbeat) and answers 200 while the server
//     should receive traffic (ready or degraded) and 503 while it should
//     not (not_ready at startup or on a failed store, draining at
//     shutdown). Point load balancers here. mmserver flips it to draining
//     before the listener closes, so balancers stop routing ahead of the
//     drain.
//
// The split matters precisely at shutdown: /healthz stays green through a
// graceful drain (the process is alive and must not be restarted) while
// /readyz goes 503 (it must stop receiving new connections).
package wire

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"

	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/pubsub"
)

// StatusOptions wires the optional obs layer into the status handler.
type StatusOptions struct {
	// Health builds /readyz's snapshot; nil reports a bare "ready" (no
	// components).
	Health func() obs.HealthSnapshot
	// Recorder backs POST /debugz/dump; nil makes the endpoint answer
	// 503 with an explanatory error.
	Recorder *obs.Recorder
}

// NewStatusHandler serves broker observability over HTTP, every metrics
// view a projection of the broker's one registry (b.Metrics()):
//
//	GET  /healthz      — liveness ("ok"; see the package comment for the
//	                     liveness/readiness split)
//	GET  /readyz       — readiness: per-component JSON, 200 while serving
//	                     (ready/degraded), 503 while refusing
//	                     (not_ready/draining)
//	POST /debugz/dump  — trigger a flight-recorder bundle; returns its path
//	GET  /statsz       — broker + index counters as JSON, plus a "metrics"
//	                     object with the full registry snapshot (top-k
//	                     dimensions included)
//	GET  /metrics      — Prometheus text exposition (format 0.0.4);
//	                     ?format=json returns the registry snapshot as JSON
//	GET  /topz         — hot-key attribution: top-K entries per dimension
//	                     with space-saving error bounds (?k=, ?dim=,
//	                     ?format=table; window rates once the registry has
//	                     been ticked twice)
//	GET  /tsz          — the registry's ring: 1s/10s/60s rates and raw
//	                     series of every counter and top-k total, windowed
//	                     quantiles of every histogram (?name= filters, ?n=
//	                     caps series length); {"enabled": false} until
//	                     someone ticks the registry (mmserver's sampler)
//	GET  /tracez       — sampled + slow request traces as JSON;
//	                     ?trace=<id> looks up one trace by hex id
//	GET  /explainz     — ?user= profile vectors + adaptation audit journal;
//	                     &doc= additionally scores a retained document
//	GET  /debug/pprof/ — runtime profiling endpoints
//	GET  /             — a minimal human-readable dashboard
//
// Mounted by mmserver's -http flag; handlers are read-only except
// /debugz/dump, which writes a diagnostic bundle under the server's dump
// directory (pprof's profile/trace endpoints start collections but mutate
// nothing). The zero StatusOptions serves a bare "ready" and no
// recorder.
func NewStatusHandler(b *pubsub.Broker, o StatusOptions) http.Handler {
	reg := b.Metrics()

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		snap := obs.NewSnapshot(false, nil)
		if o.Health != nil {
			snap = o.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !snap.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/debugz/dump", func(w http.ResponseWriter, r *http.Request) {
		// POST only: dumping writes to disk, and GETs must stay safe to
		// crawl (the root dashboard links every GET endpoint).
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if o.Recorder == nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"error": "no flight recorder configured (mmserver -dump-dir)"})
			return
		}
		path, err := o.Recorder.Dump("endpoint")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"path": path})
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		c := b.Stats()
		ix := b.IndexStats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"published":      c.Published,
			"deliveries":     c.Deliveries,
			"dropped":        c.Dropped,
			"feedbacks":      c.Feedbacks,
			"subscribers":    c.Subscribers,
			"index_users":    ix.Users,
			"index_vectors":  ix.Vectors,
			"index_distinct": ix.Distinct,
			"index_terms":    ix.Terms,
			"index_postings": ix.Postings,
			"metrics":        reg.Snapshot(),
		})
	})
	mux.HandleFunc("/topz", func(w http.ResponseWriter, r *http.Request) {
		k := 10
		if v := r.URL.Query().Get("k"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				k = n
			}
		}
		var snaps []metrics.TopSnapshot
		if dimFilter := r.URL.Query().Get("dim"); dimFilter == "" {
			snaps = reg.Tops(k)
		} else if snap, ok := reg.Top(dimFilter, k); ok {
			snaps = []metrics.TopSnapshot{snap}
		} else {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]any{"error": "unknown dimension", "dim": dimFilter})
			return
		}
		type dimOut struct {
			metrics.TopSnapshot
			Rates map[string]float64 `json:"rates_per_second,omitempty"`
		}
		dims := make([]dimOut, len(snaps))
		for i, snap := range snaps {
			dims[i] = dimOut{TopSnapshot: snap, Rates: map[string]float64{}}
			for _, span := range metrics.StandardSpans {
				if rate, ok := reg.Rate(snap.Name, span); ok {
					dims[i].Rates[span.String()] = rate
				}
			}
		}
		if r.URL.Query().Get("format") == "table" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, d := range dims {
				fmt.Fprintf(w, "%s  (total %.0f, tracked %d/%d, epsilon %.1f)\n",
					d.Name, d.Total, d.Tracked, d.Capacity, d.Epsilon)
				if r1, ok := d.Rates["10s"]; ok {
					fmt.Fprintf(w, "  rate: %.1f/s over 10s\n", r1)
				}
				for _, e := range d.Entries {
					fmt.Fprintf(w, "  %12.0f ±%-8.0f %s\n", e.Count, e.Err, e.Key)
				}
				fmt.Fprintln(w)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"k": k, "dimensions": dims})
	})
	mux.HandleFunc("/tsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		seriesMax := 60
		if v := r.URL.Query().Get("n"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				seriesMax = n
			}
		}
		snap := reg.Window(seriesMax)
		if name := r.URL.Query().Get("name"); name != "" {
			snap.Counters = slices.DeleteFunc(snap.Counters, func(c metrics.CounterWindow) bool { return c.Name != name })
			snap.Histograms = slices.DeleteFunc(snap.Histograms, func(h metrics.HistWindow) bool { return h.Name != name })
		}
		json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(reg.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tr := b.Tracer()
		if tr == nil {
			json.NewEncoder(w).Encode(map[string]any{"enabled": false})
			return
		}
		if id := r.URL.Query().Get("trace"); id != "" {
			ts, ok := tr.Find(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]any{"error": "trace not found", "trace": id})
				return
			}
			json.NewEncoder(w).Encode(ts)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"enabled": true, "snapshot": tr.Snapshot()})
	})
	mux.HandleFunc("/explainz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		user := r.URL.Query().Get("user")
		if user == "" {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]any{"error": "missing user parameter"})
			return
		}
		terms := 5
		if t := r.URL.Query().Get("terms"); t != "" {
			if n, err := strconv.Atoi(t); err == nil && n >= 0 {
				terms = n
			}
		}
		info, err := b.ProfileInfo(user, terms)
		if err != nil {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
			return
		}
		out := map[string]any{"profile": info}
		if d := r.URL.Query().Get("doc"); d != "" {
			doc, err := strconv.ParseInt(d, 10, 64)
			if err != nil {
				w.WriteHeader(http.StatusBadRequest)
				json.NewEncoder(w).Encode(map[string]any{"error": "bad doc parameter: " + d})
				return
			}
			ex, err := b.ExplainDoc(user, doc, terms)
			if err != nil {
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
				return
			}
			out["doc"] = doc
			out["explanation"] = ex
		}
		json.NewEncoder(w).Encode(out)
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
		c := b.Stats()
		ix := b.IndexStats()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>mmserver</title></head><body>
<h1>mmserver</h1>
<table border="1" cellpadding="4">
<tr><td>subscribers</td><td>%d</td></tr>
<tr><td>published</td><td>%d</td></tr>
<tr><td>deliveries</td><td>%d (dropped %d)</td></tr>
<tr><td>feedbacks</td><td>%d</td></tr>
<tr><td>index</td><td>%d vectors (%d distinct) over %d terms (%d postings)</td></tr>
</table>
<p><a href="%s">/statsz</a> · <a href="%s">/metrics</a> · <a href="%s">/topz</a> · <a href="%s">/tsz</a> · <a href="%s">/tracez</a> · <a href="%s">/explainz</a> · <a href="%s">/debug/pprof/</a> · <a href="%s">/healthz</a> · <a href="%s">/readyz</a> · POST /debugz/dump</p>
</body></html>`,
			c.Subscribers, c.Published, c.Deliveries, c.Dropped, c.Feedbacks,
			ix.Vectors, ix.Distinct, ix.Terms, ix.Postings,
			html.EscapeString("/statsz"), html.EscapeString("/metrics"),
			html.EscapeString("/topz"), html.EscapeString("/tsz"),
			html.EscapeString("/tracez"), html.EscapeString("/explainz?user="),
			html.EscapeString("/debug/pprof/"), html.EscapeString("/healthz"),
			html.EscapeString("/readyz"))
	})
	return mux
}
