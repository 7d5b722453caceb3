package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"parallellives/internal/obs"
)

// Names is what tells one front's published numbers from another's: the
// metric families it reports under and the word its root spans start
// with. Everything else about a front is the same code.
type Names struct {
	// Span prefixes root span names: "<Span> <endpoint pattern>".
	Span string
	// Requests, Errors and Latency are the per-endpoint families.
	Requests, Errors, Latency string
	// InFlight, Sheds, Panics and Timeouts are the lifecycle chain's
	// families (see NewChain).
	InFlight, Sheds, Panics, Timeouts string
	// FailFrom is the lowest status the Errors family counts: the serving
	// tier counts the 4xx it answers itself (400), the router only what
	// it could not relay (500).
	FailFrom int
}

// Front is everything about an HTTP surface that does not depend on
// what is behind it: the route table, the per-endpoint instrument
// (Handle), the probe and scrape endpoints (Probes), the lifecycle
// chain every request runs inside, and the exemplar ring behind
// /v1/debug/slow. The single-snapshot server and the shard router are
// each one Front plus handlers — which is what keeps a routed fleet and
// a single process the same surface (DESIGN.md §9.1).
type Front struct {
	Obs       *obs.Obs
	Chain     *Chain
	Exemplars *obs.ExemplarRing

	names     Names
	spanIDs   obs.IDSource
	mux       *http.ServeMux
	handler   http.Handler // mux inside the lifecycle chain
	endpoints map[string]*endpointMetrics
}

// endpointMetrics holds one endpoint's pre-resolved registry handles.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// NewFront builds an empty front. A nil o gets a private obs.New();
// exemplarCapacity sizes the slow/error ring (0 = the default 32,
// negative disables capture); spanIDs overrides the tracer's ID source
// for tests.
func NewFront(names Names, o *obs.Obs, chain ChainOptions, exemplarCapacity int, spanIDs obs.IDSource) *Front {
	if o == nil {
		o = obs.New()
	}
	if exemplarCapacity == 0 {
		exemplarCapacity = 32
	}
	f := &Front{
		Obs:       o,
		Chain:     NewChain(o.Registry, names, chain),
		Exemplars: obs.NewExemplarRing(exemplarCapacity),
		names:     names,
		spanIDs:   spanIDs,
		mux:       http.NewServeMux(),
		endpoints: make(map[string]*endpointMetrics),
	}
	f.handler = f.Chain.Wrap(f.mux)
	return f
}

// ServeHTTP implements http.Handler: the mux behind the lifecycle chain
// — panic recovery around admission control around the per-request
// deadline.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.handler.ServeHTTP(w, r) }

// PathQuery is the request's path plus raw query — the ETag key, the
// router's cache key and upstream request target, and an exemplar's Path.
func PathQuery(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return r.URL.Path + "?" + r.URL.RawQuery
	}
	return r.URL.Path
}

// Handle registers fn under a mux pattern ("GET /v1/asn/{n}") behind
// the endpoint instrument: request, error and latency series labelled
// with the pattern's path (handles resolved once here, so the
// per-request cost is atomics), the per-request trace, and the exemplar
// offer (DESIGN.md §13).
//
// A request records a span tree when it carries a valid traceparent or
// while the exemplar ring is still arming; it gets a fresh tracer — the
// process tracer keeps every root forever, so it must not see request
// spans. Once the ring's floor is set, untraced requests skip the
// tracer entirely and offer an outcome-only exemplar: one atomic load
// rejects the typical request, and a late outlier is still admitted,
// without a tree.
func (f *Front) Handle(pattern string, fn http.HandlerFunc) {
	_, label, _ := strings.Cut(pattern, " ")
	reg := f.Obs.Registry
	m := &endpointMetrics{
		requests: reg.CounterVec(f.names.Requests, "Requests by endpoint pattern.", "endpoint").With(label),
		errors:   reg.CounterVec(f.names.Errors, "Failed requests by endpoint pattern.", "endpoint").With(label),
		// The buckets span the in-process serving range: cache hits land
		// in the low microseconds, cold block reads in the milliseconds.
		latency: reg.HistogramVec(f.names.Latency, "Request latency by endpoint pattern.",
			obs.ExpBuckets(0.000001, 10, 8), "endpoint").With(label),
	}
	f.endpoints[label] = m
	f.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Inc()
		rw := &responseWriter{ResponseWriter: w}
		remote, traced := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		if traced || f.Exemplars.Arming() {
			ctx := obs.WithTracer(r.Context(), obs.NewTracerWithIDs(nil, f.spanIDs))
			if traced {
				ctx = obs.WithRemoteParent(ctx, remote)
			}
			ctx, rw.span = obs.StartSpan(ctx, f.names.Span+" "+label)
			rw.traced = traced
			r = r.WithContext(ctx)
		}
		defer func() {
			d := time.Since(start)
			m.latency.Observe(d.Seconds())
			if rw.status == 0 {
				// Every handler writes a response, so none written means a
				// panic is unwinding: the recovery middleware owns the 500,
				// on the underlying writer — close the books without
				// touching ours.
				rw.finish(http.StatusInternalServerError)
			}
			if rw.status >= f.names.FailFrom {
				m.errors.Inc()
			}
			e := obs.Exemplar{
				CapturedUnixNs: start.UnixNano(),
				Endpoint:       label,
				Path:           PathQuery(r),
				Status:         rw.status,
				DurationNs:     d.Nanoseconds(),
			}
			if rw.span == nil {
				f.Exemplars.OfferLazy(e, nil)
				return
			}
			e.TraceID = rw.span.TraceID()
			f.Exemplars.OfferLazy(e, func() obs.SpanSummary { return obs.Summarize(rw.span) })
		}()
		fn(rw, r)
	})
}

// responseWriter is the instrument's view of one response: the status
// the handler wrote and, when the request records a span tree, the root
// span — which must end just before the first response byte, because
// its summary can only travel back to a traced caller as a header. The
// span therefore measures time to first byte; the latency histogram
// keeps measuring the whole handler.
type responseWriter struct {
	http.ResponseWriter
	status int       // zero until the response starts
	span   *obs.Span // nil unless this request records a span tree
	traced bool      // the caller sent trace context: answer with the summary
}

// finish records the outcome and ends the root span, if there is one.
func (w *responseWriter) finish(status int) {
	w.status = status
	if w.span != nil {
		w.span.SetAttr("status", int64(status))
		w.span.End()
	}
}

func (w *responseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.finish(code)
		if w.traced {
			if b, err := json.Marshal(obs.Summarize(w.span)); err == nil {
				w.Header().Set(obs.SpanHeader, string(b))
			}
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Probes registers the three endpoints every front answers itself —
// the ones admission control never sheds (gateExempt). They run behind
// the instrument like any other, so /v1/health and /metrics account
// for every request the process answers.
//
//	/healthz  liveness: 200 while the handler chain runs. Deliberately
//	          blind to the backend — liveness must not flap with data
//	          trouble, or an orchestrator restarts a process that merely
//	          needs a reload.
//	/readyz   readiness: 200 while ready reports true, else 503 +
//	          Retry-After with ready's reason as the body.
//	/metrics  the Prometheus exposition of the front's registry. A
//	          non-nil collect runs first, at scrape time, to copy state
//	          kept outside the registry (the router's cache counters)
//	          into it.
func (f *Front) Probes(ready func() (ok bool, why string), collect func()) {
	reg := f.Obs.Registry
	runtime := obs.RegisterRuntime(reg)

	f.Handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeText(w, http.StatusOK, "ok\n")
	})
	f.Handle("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if ok, why := ready(); !ok {
			w.Header().Set("Retry-After", "1")
			writeText(w, http.StatusServiceUnavailable, why+"\n")
			return
		}
		writeText(w, http.StatusOK, "ready\n")
	})
	f.Handle("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		if collect != nil {
			collect()
		}
		runtime.Collect()
		w.Header().Set("Content-Type", obs.ContentType)
		if err := obs.WritePrometheus(w, reg); err != nil {
			http.Error(w, "rendering metrics: "+err.Error(), http.StatusInternalServerError)
		}
	})
}

func writeText(w http.ResponseWriter, status int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	w.Write([]byte(body))
}

// WriteJSON renders a locally built JSON response, Content-Length
// included. A payload that cannot be encoded becomes a 500.
func WriteJSON(w http.ResponseWriter, status int, payload any) {
	body, err := json.Marshal(payload)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// WriteError renders the error envelope every front answers failures
// with. retryAfter > 0 adds a Retry-After header — the explicit "come
// back later" that distinguishes a shed, short-circuited or dark-range
// request from a dead one.
func WriteError(w http.ResponseWriter, status, retryAfter int, format string, args ...any) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
