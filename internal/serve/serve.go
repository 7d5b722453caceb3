// Package serve exposes a computed ASN-lives dataset over a concurrent
// HTTP API. It answers from a lifestore — either a snapshot file opened
// cold (lifestore.Store) or a freshly captured in-memory snapshot
// (lifestore.InMemory) — so serving never re-runs the pipeline.
//
// Endpoints (all GET, all JSON):
//
//	/v1/asn/{n}        one ASN's parallel lives with taxonomy categories
//	/v1/rir/{r}/series daily alive counts for one registry (or "all"),
//	                   downsampled with ?stride=N days
//	/v1/taxonomy       the Table-3 taxonomy counts and shares
//	/v1/health         pipeline health + store metadata + cache and
//	                   per-endpoint request/latency counters
//	/v1/stages         the build's stage trace (404 when the dataset was
//	                   built without observability attached)
//	/metrics           Prometheus text exposition of the server's
//	                   registry: serve traffic, cache state, the build's
//	                   pipeline/health metrics, and anything else
//	                   published to the shared registry (lifestore reads,
//	                   pipeline counters)
//	/healthz           liveness probe (always 200 while the process runs)
//	/readyz            readiness probe (503 while the breaker is open)
//	/v1/admin/reload   POST: verified hot snapshot reload (only with
//	                   Options.Reloader)
//
// Responses for the data endpoints are cached in a fixed-size LRU keyed
// by path and query; /v1/health is always computed live.
//
// Every request runs inside a lifecycle-control chain (lifecycle.go):
// panic recovery, an admission gate that sheds load past a concurrency
// cap with 503 + Retry-After, and a per-request deadline propagated via
// context into lifestore lookups. Block reads are additionally guarded
// by a circuit breaker (breaker.go) that trips on consecutive
// checksum/IO failures, and the backing snapshot can be hot-reloaded
// through a generation-refcounted swap (reload.go). See DESIGN.md §9.
//
// Endpoint counters live on an obs.Registry rather than ad-hoc atomics,
// so the same numbers surface identically on /v1/health (JSON, with
// derived p50/p99) and /metrics (Prometheus histogram).
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/pipeline"
	"parallellives/internal/report"
)

// Registry metric names the server publishes.
const (
	// MetricRequests counts requests by endpoint pattern.
	MetricRequests = "parallellives_serve_requests_total"
	// MetricErrors counts handler failures by endpoint pattern.
	MetricErrors = "parallellives_serve_errors_total"
	// MetricLatency is the per-endpoint request latency histogram.
	MetricLatency = "parallellives_serve_request_seconds"
	// MetricCacheHits / MetricCacheMisses / MetricCacheEntries mirror the
	// LRU's own accounting into the registry at scrape time.
	MetricCacheHits    = "parallellives_serve_cache_hits"
	MetricCacheMisses  = "parallellives_serve_cache_misses"
	MetricCacheEntries = "parallellives_serve_cache_entries"
	// MetricInFlight gauges requests currently being handled;
	// MetricSheds counts admissions refused past the in-flight cap.
	MetricInFlight = "parallellives_serve_inflight"
	MetricSheds    = "parallellives_serve_shed_total"
	// MetricPanics counts handler panics converted into 500s.
	MetricPanics = "parallellives_serve_panics_total"
	// MetricTimeouts counts lookups abandoned at the request deadline.
	MetricTimeouts = "parallellives_serve_timeouts_total"
	// Breaker instrumentation (see breaker.go for the state values).
	MetricBreakerState         = "parallellives_serve_breaker_state"
	MetricBreakerTrips         = "parallellives_serve_breaker_trips_total"
	MetricBreakerShortCircuits = "parallellives_serve_breaker_short_circuits_total"
	// Reload instrumentation (see reload.go).
	MetricReloads    = "parallellives_serve_reload_total"
	MetricGeneration = "parallellives_serve_generation"
)

// Source is the query surface the server needs; *lifestore.Store,
// *lifestore.InMemory and *Swappable all implement it. Lookups carry
// the request context so a server-side deadline or a departed client
// stops backend reads.
type Source interface {
	Meta() lifestore.Meta
	Health() pipeline.Health
	Taxonomy() core.TaxonomyCounts
	Series() *core.AliveSeries
	LookupContext(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, error)
	ASNCount() int
}

// Options configures a server.
type Options struct {
	// CacheSize is the LRU response-cache capacity in entries
	// (default 256; negative disables caching).
	CacheSize int
	// DefaultStride is the series downsampling default in days when the
	// request carries no ?stride (default 30).
	DefaultStride int
	// Obs supplies the observability core the server publishes to. Pass
	// the same Obs the pipeline built with and /metrics exposes build
	// and serve metrics side by side while /v1/stages serves the build
	// trace. Nil gets the server a private obs.New().
	Obs *obs.Obs

	// MaxInFlight caps concurrently handled requests; past it new
	// requests are shed with 503 + Retry-After (default 512; negative
	// disables admission control). Probes and /metrics are exempt.
	MaxInFlight int
	// RequestTimeout is the per-request deadline propagated into
	// lifestore lookups (default 10s; negative disables).
	RequestTimeout time.Duration
	// BreakerThreshold is the consecutive lookup failures that trip the
	// lifestore circuit breaker (default 5; negative disables the
	// breaker). BreakerCooldown is how long it stays open before
	// half-opening a probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Reloader, when set, enables POST /v1/admin/reload and ties the
	// response cache to the snapshot generation: every successful swap
	// flushes it. Serve through the Reloader's Swappable as the Source,
	// or reloads will swap a store nobody queries.
	Reloader *Reloader

	// Ingest, when set, is polled per /v1/health request and rendered
	// under "ingest" in the response — the live-tail daemon passes the
	// tailer's Status method here so staleness, checkpoint age and
	// recovery counts ride the same probe as the serving health. The
	// returned value must be JSON-serializable and the function safe for
	// concurrent use.
	Ingest func() any

	// ExemplarCapacity sizes the slow/error exemplar ring behind
	// /v1/debug/slow: the span trees of the slowest-N and the last N
	// failed requests (default 32; negative disables capture, and with
	// it per-request span recording for untraced requests).
	ExemplarCapacity int
	// SpanIDs overrides the request tracer's span/trace ID source —
	// tests inject deterministic sequences. Nil uses the process-wide
	// random source.
	SpanIDs obs.IDSource

	// Replica names this process within a replicated shard set. It rides
	// the /v1/shard handshake payload so a router can tell two replicas
	// of the same range apart (and refuse the same process listed
	// twice). Empty gets a random 8-hex-digit ID at startup — replica
	// identity only has to be unique within one fleet, not stable across
	// restarts.
	Replica string
}

// Server is the HTTP API over one opened dataset. It is safe for
// concurrent use.
type Server struct {
	src           Source
	mux           *http.ServeMux
	handler       http.Handler // mux wrapped in the lifecycle middleware
	cache         *LRU[cached]
	obs           *obs.Obs
	metrics       map[string]*endpointMetrics
	cacheHits     *obs.Gauge
	cacheMisses   *obs.Gauge
	cacheEntries  *obs.Gauge
	defaultStride int

	// Request lifecycle control (see lifecycle.go).
	chain    *Chain
	breaker  *Breaker
	reloader *Reloader
	ingest   func() any

	// Request tracing + exemplar capture (DESIGN.md §13).
	exemplars *obs.ExemplarRing
	spanIDs   obs.IDSource
	runtime   *obs.RuntimeStats

	// Replica identity reported in the /v1/shard handshake (§14).
	replica string
}

// endpointMetrics holds one endpoint's pre-resolved registry handles.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// latencyBuckets spans the in-process serving range: cache hits land in
// the low microseconds, cold block reads in the milliseconds.
func latencyBuckets() []float64 { return obs.ExpBuckets(0.000001, 10, 8) }

// randomReplicaID generates the default replica identity: 8 hex digits,
// unique enough within one fleet. The PID fallback keeps two replicas on
// one host distinguishable even if the random source fails.
func randomReplicaID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("pid-%d", os.Getpid())
	}
	return hex.EncodeToString(b[:])
}

// New builds the server around a source.
func New(src Source, opts Options) *Server {
	if opts.CacheSize == 0 {
		opts.CacheSize = 256
	}
	if opts.CacheSize < 0 {
		opts.CacheSize = 0
	}
	if opts.DefaultStride <= 0 {
		opts.DefaultStride = 30
	}
	if opts.Obs == nil {
		opts.Obs = obs.New()
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 5
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	if opts.ExemplarCapacity == 0 {
		opts.ExemplarCapacity = 32
	}
	if opts.Replica == "" {
		opts.Replica = randomReplicaID()
	}
	reg := opts.Obs.Registry
	s := &Server{
		src:           src,
		mux:           http.NewServeMux(),
		cache:         NewLRU[cached](opts.CacheSize),
		obs:           opts.Obs,
		metrics:       make(map[string]*endpointMetrics),
		cacheHits:     reg.Gauge(MetricCacheHits, "LRU response-cache hits since start."),
		cacheMisses:   reg.Gauge(MetricCacheMisses, "LRU response-cache misses since start."),
		cacheEntries:  reg.Gauge(MetricCacheEntries, "LRU response-cache entries currently held."),
		defaultStride: opts.DefaultStride,

		chain: NewChain(reg, ChainOptions{
			MaxInFlight:    opts.MaxInFlight,
			RequestTimeout: opts.RequestTimeout,
		}),
		reloader:  opts.Reloader,
		ingest:    opts.Ingest,
		exemplars: obs.NewExemplarRing(opts.ExemplarCapacity),
		spanIDs:   opts.SpanIDs,
		runtime:   obs.RegisterRuntime(reg),
		replica:   opts.Replica,
	}
	if opts.BreakerThreshold > 0 {
		s.breaker = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, reg)
	}
	// Bridge the build's health report into the registry so a /metrics
	// scrape carries the dataset's provenance even when the server was
	// handed a cold snapshot rather than a live pipeline run.
	h := src.Health()
	h.Export(reg)
	s.mux.HandleFunc("GET /v1/asn/{n}", s.wrap("/v1/asn/{n}", true, s.handleASN))
	s.mux.HandleFunc("GET /v1/rir/{r}/series", s.wrap("/v1/rir/{r}/series", true, s.handleSeries))
	s.mux.HandleFunc("GET /v1/taxonomy", s.wrap("/v1/taxonomy", true, s.handleTaxonomy))
	s.mux.HandleFunc("GET /v1/health", s.wrap("/v1/health", false, s.handleHealth))
	s.mux.HandleFunc("GET /v1/stages", s.wrap("/v1/stages", false, s.handleStages))
	s.mux.HandleFunc("GET /v1/shard", s.wrap("/v1/shard", false, s.handleShard))
	s.mux.HandleFunc("GET /v1/debug/slow", s.wrap("/v1/debug/slow", false, s.handleSlow))
	// The probe and scrape endpoints write their own bodies (text, not
	// JSON) but still ride the metrics wrapper, so /v1/health and
	// /metrics account for every request the process answers. They stay
	// exempt from the admission gate and deadline via gateExempt.
	s.mux.HandleFunc("GET /metrics", s.wrapRaw("/metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.wrapRaw("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.wrapRaw("/readyz", s.handleReadyz))
	if s.reloader != nil {
		s.mux.HandleFunc("POST /v1/admin/reload", s.wrap("/v1/admin/reload", false, s.handleReload))
		// Cached bodies belong to the generation that rendered them.
		s.reloader.OnSwap(s.cache.Flush)
	}
	s.handler = s.chain.Wrap(s.mux)
	return s
}

// ServeHTTP implements http.Handler: the mux behind the lifecycle
// middleware chain — panic recovery around admission control around the
// per-request deadline.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// apiError is a handler failure with its HTTP status. retryAfter > 0
// adds a Retry-After header — the explicit "come back later" that
// distinguishes a shed or short-circuited request from a dead one.
type apiError struct {
	code       int
	msg        string
	retryAfter int
}

func errf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

func retryf(code, after int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...), retryAfter: after}
}

// etagCastagnoli matches the snapshot file's checksum polynomial — one
// CRC flavour across the system.
var etagCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// EtagFor renders the validator for one (generation, path?query) pair:
// `"g<gen>-<crc32c(key)>"`. The generation makes a hot reload invalidate
// every cached copy at once; the key hash distinguishes resources within
// a generation. Derived from identity rather than the body, so a 304 can
// be answered before the handler runs — and so the router can recognise
// which generation a shard's response came from without re-reading it.
func EtagFor(gen int64, key string) string {
	// Renders `"g<gen>-<crc32c(key)>"` by hand, hashing the key without a
	// []byte conversion: this runs once per cacheable request, and
	// fmt.Sprintf alone costs more than the rest of a cache-hit response.
	sum := ^uint32(0)
	for i := 0; i < len(key); i++ {
		sum = etagCastagnoli[byte(sum)^key[i]] ^ (sum >> 8)
	}
	sum = ^sum
	var scratch [40]byte
	b := append(scratch[:0], '"', 'g')
	b = strconv.AppendInt(b, gen, 10)
	b = append(b, '-')
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[(sum>>uint(shift))&0xf])
	}
	b = append(b, '"')
	return string(b)
}

// generation reports the serving snapshot's generation for validators:
// the Swappable's monotone counter when hot reload is wired, else the
// constant first generation (a process that cannot reload serves one
// immutable dataset for its whole life).
func (s *Server) generation() int64 {
	if sw, ok := s.src.(*Swappable); ok {
		cur, _ := sw.Generations()
		return cur.Gen
	}
	return 1
}

// wrap adds caching, conditional-request handling, metrics and JSON
// rendering around a handler. The registry handles are resolved once
// here, so the per-request cost is pure atomics.
//
// Cacheable endpoints carry an ETag derived from (generation, key); an
// If-None-Match hit answers 304 without running the handler or touching
// the response cache — revalidation stays cheap even when the body
// would be expensive to rebuild.
func (s *Server) wrap(label string, cacheable bool, fn func(*http.Request) (any, *apiError)) http.HandlerFunc {
	reg := s.obs.Registry
	m := &endpointMetrics{
		requests: reg.CounterVec(MetricRequests, "API requests by endpoint pattern.", "endpoint").With(label),
		errors:   reg.CounterVec(MetricErrors, "API handler failures by endpoint pattern.", "endpoint").With(label),
		latency: reg.HistogramVec(MetricLatency, "API request latency by endpoint pattern.",
			latencyBuckets(), "endpoint").With(label),
	}
	s.metrics[label] = m
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Inc()

		key := r.URL.Path
		if r.URL.RawQuery != "" {
			key += "?" + r.URL.RawQuery
		}

		// Per-request trace (DESIGN.md §13). A fresh tracer per request —
		// the process tracer keeps every root forever, so it must not see
		// request spans. Recording happens when exemplar capture is on or
		// the client sent trace context; with both disabled the request
		// runs exactly the pre-tracing path.
		remote, traced := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		var span *obs.Span
		var status int // set at every write site below; read by the untraced exemplar defer
		if traced || s.exemplars.Arming() {
			ctx := obs.WithTracer(r.Context(), obs.NewTracerWithIDs(nil, s.spanIDs))
			if traced {
				ctx = obs.WithRemoteParent(ctx, remote)
			}
			ctx, span = obs.StartSpan(ctx, "serve "+label)
			r = r.WithContext(ctx)
			tw := &TraceWriter{ResponseWriter: w, Finish: func(status int) {
				// Runs once, just before the first response byte: the span
				// must end here so its summary can still travel as a header.
				span.SetAttr("status", int64(status))
				span.End()
				if traced {
					if b, err := json.Marshal(obs.Summarize(span)); err == nil {
						w.Header().Set(obs.SpanHeader, string(b))
					}
				}
			}}
			w = tw
			defer func() {
				d := time.Since(start)
				m.latency.Observe(d.Seconds())
				status := tw.Status
				if !tw.Done {
					// Every normal path writes a response, so an open span
					// here means a panic is unwinding: the recovery
					// middleware owns the response (a 500 on the underlying
					// writer) — end the span without touching ours.
					status = http.StatusInternalServerError
					span.SetAttr("status", int64(status))
					span.End()
				}
				s.exemplars.OfferLazy(obs.Exemplar{
					CapturedUnixNs: start.UnixNano(),
					Endpoint:       label,
					Path:           key,
					Status:         status,
					DurationNs:     d.Nanoseconds(),
					TraceID:        span.TraceID(),
				}, func() obs.SpanSummary { return obs.Summarize(span) })
			}()
		} else if s.exemplars != nil {
			// Steady state with the ring's floor set: untraced requests skip
			// the tracer entirely and offer an outcome-only exemplar — one
			// atomic load rejects the typical request, and a late outlier is
			// still admitted (without a span tree, which only the arming
			// phase and traced requests capture). The status is tracked in a
			// local rather than a writer wrapper: every response below is
			// written by this function, and the wrapper allocation is the
			// kind of per-request cost this branch exists to avoid.
			defer func() {
				d := time.Since(start)
				m.latency.Observe(d.Seconds())
				if status == 0 {
					// Every normal path records a status, so zero means a
					// panic is unwinding and the recovery middleware owns
					// the 500.
					status = http.StatusInternalServerError
				}
				s.exemplars.OfferLazy(obs.Exemplar{
					CapturedUnixNs: start.UnixNano(),
					Endpoint:       label,
					Path:           key,
					Status:         status,
					DurationNs:     d.Nanoseconds(),
				}, nil)
			}()
		} else {
			defer func() { m.latency.Observe(time.Since(start).Seconds()) }()
		}
		var etag string
		var gen int64
		if cacheable {
			gen = s.generation()
			if c, ok := s.cache.Get(key); ok && c.gen == gen {
				// Hit: the entry carries its validator and header values,
				// so the hot path renders no strings at all.
				w.Header()["Etag"] = c.etagHdr
				if r.Header.Get("If-None-Match") == c.etag {
					status = http.StatusNotModified
					w.WriteHeader(http.StatusNotModified)
					return
				}
				status = http.StatusOK
				writeBody(w, http.StatusOK, c)
				return
			}
			// Miss (or an entry from a generation the flush hasn't caught
			// yet — the put below replaces it): render the validator once
			// and answer 304 without running the handler if it matches.
			etag = EtagFor(gen, key)
			if r.Header.Get("If-None-Match") == etag {
				w.Header().Set("ETag", etag)
				status = http.StatusNotModified
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		payload, apiErr := fn(r)
		if apiErr != nil {
			m.errors.Inc()
			if apiErr.retryAfter > 0 {
				retryAfterHeader(w, apiErr.retryAfter)
			}
			body, _ := json.Marshal(map[string]string{"error": apiErr.msg})
			status = apiErr.code
			writeBody(w, apiErr.code, cached{contentType: "application/json", body: body})
			return
		}
		body, err := json.Marshal(payload)
		if err != nil {
			m.errors.Inc()
			status = http.StatusInternalServerError
			http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
			return
		}
		c := newCached("application/json", body, etag, gen)
		if cacheable {
			s.cache.Put(key, c)
			w.Header()["Etag"] = c.etagHdr
		}
		status = http.StatusOK
		writeBody(w, http.StatusOK, c)
	}
}

// TraceWriter finalizes the request span just before the first response
// byte — headers must be set before WriteHeader, so the span summary
// can only travel back to a traced caller if the span ends here. The
// span therefore measures time to first byte; the endpoint latency
// histogram keeps measuring the full handler. Shared with the router's
// endpoint wrapper.
type TraceWriter struct {
	http.ResponseWriter
	Status int
	Done   bool
	Finish func(status int)
}

func (w *TraceWriter) WriteHeader(code int) {
	if !w.Done {
		w.Done = true
		w.Status = code
		w.Finish(code)
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *TraceWriter) Write(b []byte) (int, error) {
	if !w.Done {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// StatusWriter records the status a raw handler wrote, so a wrapper can
// classify failures without owning the body.
type StatusWriter struct {
	http.ResponseWriter
	Status int
}

func (w *StatusWriter) WriteHeader(code int) {
	w.Status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrapRaw instruments a handler that writes its own response (the text
// probes and the Prometheus scrape): request count, latency, and an
// error count for 5xx statuses. Unlike wrap it never touches the body —
// these endpoints are not JSON and not cacheable.
func (s *Server) wrapRaw(label string, fn http.HandlerFunc) http.HandlerFunc {
	reg := s.obs.Registry
	m := &endpointMetrics{
		requests: reg.CounterVec(MetricRequests, "API requests by endpoint pattern.", "endpoint").With(label),
		errors:   reg.CounterVec(MetricErrors, "API handler failures by endpoint pattern.", "endpoint").With(label),
		latency: reg.HistogramVec(MetricLatency, "API request latency by endpoint pattern.",
			latencyBuckets(), "endpoint").With(label),
	}
	s.metrics[label] = m
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { m.latency.Observe(time.Since(start).Seconds()) }()
		m.requests.Inc()
		sw := &StatusWriter{ResponseWriter: w, Status: http.StatusOK}
		fn(sw, r)
		if sw.Status >= http.StatusInternalServerError {
			m.errors.Inc()
		}
	}
}

func writeBody(w http.ResponseWriter, status int, c cached) {
	h := w.Header()
	if c.typeHdr != nil {
		// Cache-ready entries carry their header values prebuilt (the
		// canonical key spellings below match what Header.Set stores), so
		// the hit path writes headers without rendering anything.
		h["Content-Type"] = c.typeHdr
		h["Content-Length"] = c.lenHdr
	} else {
		h.Set("Content-Type", c.contentType)
		h.Set("Content-Length", strconv.Itoa(len(c.body)))
	}
	w.WriteHeader(status)
	w.Write(c.body)
}

// adminLifeJSON is one administrative life in an /v1/asn response.
type adminLifeJSON struct {
	ID          string        `json:"id"`
	RIR         string        `json:"rir"`
	CC          string        `json:"cc,omitempty"`
	OrgID       string        `json:"orgId,omitempty"`
	RegDate     string        `json:"regDate"`
	Start       string        `json:"start"`
	End         string        `json:"end"`
	Days        int           `json:"days"`
	Open        bool          `json:"open"`
	Transferred bool          `json:"transferred,omitempty"`
	Pieces      int           `json:"pieces"`
	Category    core.Category `json:"category"`
}

// opLifeJSON is one operational life in an /v1/asn response.
type opLifeJSON struct {
	ID       string        `json:"id"`
	Start    string        `json:"start"`
	End      string        `json:"end"`
	Days     int           `json:"days"`
	Category core.Category `json:"category"`
}

type asnResponse struct {
	ASN   asn.ASN         `json:"asn"`
	Admin []adminLifeJSON `json:"admin"`
	Op    []opLifeJSON    `json:"op"`
}

func (s *Server) handleASN(r *http.Request) (any, *apiError) {
	raw := strings.TrimPrefix(strings.TrimPrefix(r.PathValue("n"), "AS"), "as")
	a, err := asn.Parse(raw)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "bad ASN %q", r.PathValue("n"))
	}
	lives, ok, apiErr := s.lookup(r.Context(), a)
	if apiErr != nil {
		return nil, apiErr
	}
	if !ok {
		return nil, errf(http.StatusNotFound, "AS%s has no recorded lives", a)
	}
	resp := asnResponse{ASN: a, Admin: []adminLifeJSON{}, Op: []opLifeJSON{}}
	for i, al := range lives.Admin {
		resp.Admin = append(resp.Admin, adminLifeJSON{
			ID:          fmt.Sprintf("AS%s:admin:%d", a, i),
			RIR:         al.RIR.Token(),
			CC:          al.CC,
			OrgID:       al.OpaqueID,
			RegDate:     al.RegDate.String(),
			Start:       al.Span.Start.String(),
			End:         al.Span.End.String(),
			Days:        al.Span.Days(),
			Open:        al.Open,
			Transferred: al.Transferred,
			Pieces:      al.Pieces,
			Category:    al.Category,
		})
	}
	for i, ol := range lives.Op {
		resp.Op = append(resp.Op, opLifeJSON{
			ID:       fmt.Sprintf("AS%s:op:%d", a, i),
			Start:    ol.Span.Start.String(),
			End:      ol.Span.End.String(),
			Days:     ol.Span.Days(),
			Category: ol.Category,
		})
	}
	return resp, nil
}

// lookup is the breaker-guarded, context-aware read of one ASN's block.
// The error taxonomy is deliberate: 503 + Retry-After while the breaker
// is open (the store may recover), 504 when the request deadline
// expired or the client left (the store is fine), 500 for an actual
// failed read (which feeds the breaker).
func (s *Server) lookup(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, *apiError) {
	if s.breaker != nil && !s.breaker.Allow() {
		return lifestore.ASNLives{}, false, retryf(http.StatusServiceUnavailable, 1,
			"lifestore circuit open after repeated read failures; retrying shortly")
	}
	ctx, sp := obs.StartSpan(ctx, "lifestore.lookup")
	lives, ok, err := s.src.LookupContext(ctx, a)
	if ok {
		sp.SetAttr("found", 1)
	}
	sp.End()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.chain.timeouts.Inc()
			if s.breaker != nil {
				s.breaker.OnNeutral()
			}
			return lifestore.ASNLives{}, false, errf(http.StatusGatewayTimeout,
				"deadline exceeded reading AS%s", a)
		}
		if s.breaker != nil {
			s.breaker.OnFailure()
		}
		return lifestore.ASNLives{}, false, errf(http.StatusInternalServerError, "reading AS%s: %v", a, err)
	}
	if s.breaker != nil {
		s.breaker.OnSuccess()
	}
	return lives, ok, nil
}

type seriesResponse struct {
	RIR    string   `json:"rir"`
	Start  string   `json:"start"`
	End    string   `json:"end"`
	Stride int      `json:"stride"`
	Days   []string `json:"days"`
	Admin  []int    `json:"admin"`
	Op     []int    `json:"op"`
}

func (s *Server) handleSeries(r *http.Request) (any, *apiError) {
	token := r.PathValue("r")
	series := s.src.Series()
	if series == nil {
		return nil, errf(http.StatusNotFound, "snapshot carries no alive series")
	}
	stride := s.defaultStride
	if q := r.URL.Query().Get("stride"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			return nil, errf(http.StatusBadRequest, "bad stride %q", q)
		}
		stride = v
	}
	sample := report.SampleAlive(series, stride)
	resp := seriesResponse{
		RIR:    token,
		Start:  series.Start.String(),
		End:    series.End.String(),
		Stride: stride,
		Days:   make([]string, len(sample.Days)),
	}
	for i, d := range sample.Days {
		resp.Days[i] = d.String()
	}
	if token == "all" {
		resp.Admin = sample.AdminAll
		resp.Op = sample.OpAll
		return resp, nil
	}
	rir, err := asn.ParseRIR(token)
	if err != nil {
		return nil, errf(http.StatusNotFound, "unknown registry %q (want afrinic, apnic, arin, lacnic, ripencc or all)", token)
	}
	resp.Admin = sample.Admin[rir]
	resp.Op = sample.Op[rir]
	return resp, nil
}

type taxonomyResponse struct {
	AdminComplete int     `json:"adminComplete"`
	AdminPartial  int     `json:"adminPartial"`
	AdminUnused   int     `json:"adminUnused"`
	OpComplete    int     `json:"opComplete"`
	OpPartial     int     `json:"opPartial"`
	OpOutside     int     `json:"opOutside"`
	AdminTotal    int     `json:"adminTotal"`
	OpTotal       int     `json:"opTotal"`
	CompleteShare float64 `json:"completeShare"`
	PartialShare  float64 `json:"partialShare"`
	UnusedShare   float64 `json:"unusedShare"`
}

func (s *Server) handleTaxonomy(*http.Request) (any, *apiError) {
	t := report.BuildTable3FromCounts(s.src.Taxonomy())
	return taxonomyResponse{
		AdminComplete: t.Counts.AdminComplete,
		AdminPartial:  t.Counts.AdminPartial,
		AdminUnused:   t.Counts.AdminUnused,
		OpComplete:    t.Counts.OpComplete,
		OpPartial:     t.Counts.OpPartial,
		OpOutside:     t.Counts.OpOutside,
		AdminTotal:    t.AdminTotal,
		OpTotal:       t.OpTotal,
		CompleteShare: t.CompleteShare,
		PartialShare:  t.PartialShare,
		UnusedShare:   t.UnusedShare,
	}, nil
}

type storeJSON struct {
	FormatVersion uint16  `json:"formatVersion"`
	Start         string  `json:"start"`
	End           string  `json:"end"`
	Timeout       int     `json:"timeout"`
	Visibility    int     `json:"visibility"`
	Policy        string  `json:"policy"`
	Wire          bool    `json:"wire"`
	Scale         float64 `json:"scale"`
	Seed          int64   `json:"seed"`
	Chaos         bool    `json:"chaos"`
	ASNCount      int     `json:"asnCount"`
	AdminLives    int     `json:"adminLives"`
	OpLives       int     `json:"opLives"`
}

type cacheJSON struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
}

type endpointJSON struct {
	Requests       int64 `json:"requests"`
	Errors         int64 `json:"errors"`
	TotalLatencyNs int64 `json:"totalLatencyNs"`
	// LatencyP50Ns / LatencyP99Ns are estimated from the latency
	// histogram — additive fields the pre-registry clients never saw.
	LatencyP50Ns int64 `json:"latencyP50Ns"`
	LatencyP99Ns int64 `json:"latencyP99Ns"`
}

// breakerJSON is the circuit breaker's live state in /v1/health.
type breakerJSON struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	Trips               int64  `json:"trips"`
	ShortCircuits       int64  `json:"shortCircuits"`
}

// lifecycleJSON is the serving-resilience state in /v1/health — all
// additive fields the pre-hardening clients never saw.
type lifecycleJSON struct {
	InFlight       int64        `json:"inFlight"`
	MaxInFlight    int          `json:"maxInFlight"`
	Sheds          int64        `json:"sheds"`
	Panics         int64        `json:"panics"`
	Timeouts       int64        `json:"timeouts"`
	Breaker        *breakerJSON `json:"breaker,omitempty"`
	Generation     *GenInfo     `json:"generation,omitempty"`
	PrevGeneration *GenInfo     `json:"prevGeneration,omitempty"`
}

type healthResponse struct {
	Store     storeJSON               `json:"store"`
	Pipeline  pipeline.Health         `json:"pipeline"`
	Cache     cacheJSON               `json:"cache"`
	Endpoints map[string]endpointJSON `json:"endpoints"`
	Lifecycle lifecycleJSON           `json:"lifecycle"`
	// Ingest is the live-tail ingestion status when the server fronts a
	// streaming daemon (Options.Ingest); absent for cold snapshots.
	Ingest any `json:"ingest,omitempty"`
}

func (s *Server) handleHealth(*http.Request) (any, *apiError) {
	m := s.src.Meta()
	hits, misses, size, capacity := s.cache.Stats()
	resp := healthResponse{
		Store: storeJSON{
			FormatVersion: m.FormatVersion,
			Start:         m.Start.String(),
			End:           m.End.String(),
			Timeout:       m.Timeout,
			Visibility:    m.Visibility,
			Policy:        m.Policy.String(),
			Wire:          m.Wire,
			Scale:         m.Scale,
			Seed:          m.Seed,
			Chaos:         m.Chaos,
			ASNCount:      m.ASNCount,
			AdminLives:    m.AdminLives,
			OpLives:       m.OpLives,
		},
		Pipeline:  s.src.Health(),
		Cache:     cacheJSON{Hits: hits, Misses: misses, Size: size, Capacity: capacity},
		Endpoints: make(map[string]endpointJSON, len(s.metrics)),
	}
	for label, em := range s.metrics {
		resp.Endpoints[label] = endpointJSON{
			Requests:       em.requests.Value(),
			Errors:         em.errors.Value(),
			TotalLatencyNs: int64(em.latency.Sum() * 1e9),
			LatencyP50Ns:   int64(em.latency.Quantile(0.5) * 1e9),
			LatencyP99Ns:   int64(em.latency.Quantile(0.99) * 1e9),
		}
	}
	cs := s.chain.Stats()
	resp.Lifecycle = lifecycleJSON{
		InFlight:    cs.InFlight,
		MaxInFlight: cs.MaxInFlight,
		Sheds:       cs.Sheds,
		Panics:      cs.Panics,
		Timeouts:    cs.Timeouts,
	}
	if s.breaker != nil {
		state, consec, trips, shorts := s.breaker.Snapshot()
		resp.Lifecycle.Breaker = &breakerJSON{
			State: state, ConsecutiveFailures: consec, Trips: trips, ShortCircuits: shorts,
		}
	}
	if sw, ok := s.src.(*Swappable); ok {
		cur, prev := sw.Generations()
		resp.Lifecycle.Generation = &cur
		resp.Lifecycle.PrevGeneration = prev
	}
	if s.ingest != nil {
		resp.Ingest = s.ingest()
	}
	return resp, nil
}

// handleHealthz is the liveness probe: the process is up and the
// handler chain runs. Deliberately free of backend reads — liveness
// must not flap with data trouble, or an orchestrator restarts a
// process whose snapshot merely needs a reload.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// handleReadyz is the readiness probe: 200 while the server should
// receive traffic, 503 while the lifestore breaker is open (most
// lookups would be short-circuited anyway, so drain traffic elsewhere
// until the store recovers).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.breaker != nil {
		if state, _, _, _ := s.breaker.Snapshot(); state == "open" {
			retryAfterHeader(w, 1)
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("lifestore circuit open\n"))
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}

// handleReload runs a verified hot reload and reports the new
// generation. Failures leave the old generation serving and surface as
// 502: the snapshot on disk, not this server, is the broken party.
func (s *Server) handleReload(r *http.Request) (any, *apiError) {
	info, err := s.reloader.Reload(r.Context())
	if err != nil {
		return nil, errf(http.StatusBadGateway, "%v", err)
	}
	return info, nil
}

// Sharder is implemented by sources that can report a shard identity:
// *lifestore.Store, *lifestore.InMemory, and *Swappable (which forwards
// to whatever generation is serving).
type Sharder interface {
	Shard() *lifestore.ShardInfo
}

// shardRangeJSON is the shard's ASN range in /v1/shard.
type shardRangeJSON struct {
	Index int     `json:"index"`
	Count int     `json:"count"`
	Lo    asn.ASN `json:"lo"`
	Hi    asn.ASN `json:"hi"`
	Sum   string  `json:"sum"`
}

type shardResponse struct {
	Sharded    bool            `json:"sharded"`
	Shard      *shardRangeJSON `json:"shard,omitempty"`
	Generation int64           `json:"generation"`
	ASNCount   int             `json:"asnCount"`
	Replica    string          `json:"replica"`
}

// handleShard reports this process's shard identity — the router's
// handshake endpoint. An unsharded server answers sharded=false rather
// than 404, so a router probe can distinguish "not a shard" from "not a
// parallellives server at all".
func (s *Server) handleShard(*http.Request) (any, *apiError) {
	resp := shardResponse{Generation: s.generation(), ASNCount: s.src.ASNCount(), Replica: s.replica}
	if sh, ok := s.src.(Sharder); ok {
		if si := sh.Shard(); si != nil {
			resp.Sharded = true
			resp.Shard = &shardRangeJSON{
				Index: si.Index, Count: si.Count, Lo: si.Lo, Hi: si.Hi,
				Sum: fmt.Sprintf("%08x", si.Sum),
			}
		}
	}
	return resp, nil
}

// handleSlow serves the exemplar ring: the span trees of the slowest-N
// and last-N-failed requests this process has answered. Always 200 —
// an empty document just means nothing interesting happened yet (or
// capture is disabled, in which case capacity reads 0).
func (s *Server) handleSlow(*http.Request) (any, *apiError) {
	return s.exemplars.Snapshot(), nil
}

// handleStages serves the build's stage trace when the dataset was
// built with observability attached to the same Obs this server uses.
func (s *Server) handleStages(*http.Request) (any, *apiError) {
	summaries := s.obs.Tracer.Summary()
	if len(summaries) == 0 {
		return nil, errf(http.StatusNotFound,
			"no stage trace recorded: build the dataset with the same observability core this server was given")
	}
	return summaries, nil
}

// handleMetrics is the Prometheus scrape endpoint. The LRU's own
// counters are mirrored into the registry here, at scrape time, so the
// cache's hot path stays untouched.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, size, _ := s.cache.Stats()
	s.cacheHits.Set(float64(hits))
	s.cacheMisses.Set(float64(misses))
	s.cacheEntries.Set(float64(size))
	s.runtime.Collect()
	w.Header().Set("Content-Type", obs.ContentType)
	if err := obs.WritePrometheus(w, s.obs.Registry); err != nil {
		http.Error(w, "rendering metrics: "+err.Error(), http.StatusInternalServerError)
	}
}
