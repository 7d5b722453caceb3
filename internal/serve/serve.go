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
//	/v1/health         pipeline health + store metadata + per-endpoint
//	                   request/latency counters
//	/v1/stages         the build's stage trace (404 when the dataset was
//	                   built without observability attached)
//	/metrics           Prometheus text exposition of the server's
//	                   registry: serve traffic, the build's pipeline/health
//	                   metrics, and anything else published to the shared
//	                   registry (lifestore reads, pipeline counters)
//	/healthz           liveness probe (always 200 while the process runs)
//	/readyz            readiness probe (503 while the breaker is open)
//	/v1/admin/reload   POST: verified hot snapshot reload (only with
//	                   Options.Reloader)
//
// Every data response is rendered fresh and carries an ETag derived from
// the snapshot generation and the path and query, so a matching
// If-None-Match is answered 304 before the handler runs. The one
// response cache in the system is the router's (DESIGN.md §12).
//
// The HTTP surface itself — route table, per-endpoint metrics, request
// tracing, exemplar capture, probes, error envelope — is a Front
// (front.go), which the shard router builds on too; this file is what
// is specific to answering from a Source. Every request runs inside the
// front's lifecycle chain (lifecycle.go): panic recovery, an admission
// gate that sheds load past a concurrency cap with 503 + Retry-After,
// and a per-request deadline propagated via context into lifestore
// lookups. Block reads are additionally guarded
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
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
)

// Registry metric names the server publishes.
const (
	// MetricRequests counts requests by endpoint pattern.
	MetricRequests = "parallellives_serve_requests_total"
	// MetricErrors counts handler failures by endpoint pattern.
	MetricErrors = "parallellives_serve_errors_total"
	// MetricLatency is the per-endpoint request latency histogram.
	MetricLatency = "parallellives_serve_request_seconds"
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

// Pinned by benchmark/README.md, which scrapes both series from
// /metrics: the server keeps no response cache, so they always read 0.
// ROADMAP 1(f) deletes them.
const (
	MetricCacheHits   = "parallellives_serve_cache_hits"
	MetricCacheMisses = "parallellives_serve_cache_misses"
)

// Source is the query surface the server needs; *lifestore.Store,
// *lifestore.InMemory and *Swappable all implement it. Lookups carry
// the request context so a server-side deadline or a departed client
// stops backend reads.
type Source interface {
	Meta() lifestore.Meta
	Health() faults.Health
	Taxonomy() core.TaxonomyCounts
	Series() *core.AliveSeries
	LookupContext(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, error)
	ASNCount() int
}

// Options configures a server.
type Options struct {
	// Pinned by benchmark/README.md; ignored: the server keeps no
	// response cache.
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

	// Reloader, when set, enables POST /v1/admin/reload. Serve through
	// the Reloader's Swappable as the Source, or reloads will swap a
	// store nobody queries.
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
	front         *Front
	defaultStride int

	breaker  *Breaker
	reloader *Reloader
	ingest   func() any

	// Replica identity reported in the /v1/shard handshake (§14).
	replica string
}

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
	if opts.DefaultStride <= 0 {
		opts.DefaultStride = 30
	}
	if opts.Replica == "" {
		opts.Replica = randomReplicaID()
	}
	f := NewFront(Names{
		Span:     "serve",
		Requests: MetricRequests, Errors: MetricErrors, Latency: MetricLatency,
		FailFrom: http.StatusBadRequest,
	}, opts.Obs, ChainOptions{MaxInFlight: opts.MaxInFlight, RequestTimeout: opts.RequestTimeout},
		opts.ExemplarCapacity, opts.SpanIDs)
	reg := f.Obs.Registry
	s := &Server{
		src:           src,
		front:         f,
		defaultStride: opts.DefaultStride,
		reloader:      opts.Reloader,
		ingest:        opts.Ingest,
		replica:       opts.Replica,
	}
	if opts.BreakerThreshold >= 0 {
		s.breaker = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, reg)
	}
	// Bridge the build's health report into the registry so a /metrics
	// scrape carries the dataset's provenance even when the server was
	// handed a cold snapshot rather than a live pipeline run.
	h := src.Health()
	h.Export(reg)
	reg.Gauge(MetricCacheHits, "Always 0: the server keeps no response cache.")
	reg.Gauge(MetricCacheMisses, "Always 0: the server keeps no response cache.")
	f.Handle("GET /v1/asn/{n}", s.json(true, s.handleASN))
	f.Handle("GET /v1/rir/{r}/series", s.json(true, s.handleSeries))
	f.Handle("GET /v1/taxonomy", s.json(true, s.handleTaxonomy))
	f.Handle("GET /v1/health", s.json(false, s.handleHealth))
	f.Handle("GET /v1/stages", s.json(false, s.handleStages))
	f.Handle("GET /v1/shard", s.json(false, s.handleShard))
	f.Handle("GET /v1/debug/slow", s.json(false, s.handleSlow))
	f.Probes(s.ready, nil)
	if s.reloader != nil {
		f.Handle("POST /v1/admin/reload", s.json(false, s.handleReload))
	}
	return s
}

// ServeHTTP implements http.Handler (see Front.ServeHTTP).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.front.ServeHTTP(w, r) }

// apiError is a handler failure with its HTTP status and, when
// retryAfter > 0, a Retry-After (see WriteError).
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
	// []byte conversion: this runs once per cacheable request, and is
	// most of what a 304 costs.
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

// json adapts a handler that returns a payload to the front's plain
// handlers: JSON rendering and, for cacheable endpoints, conditional
// requests. Cacheable endpoints carry an ETag derived from (generation,
// key); an If-None-Match hit answers 304 without running the handler —
// revalidation stays cheap even when the body would be expensive to
// rebuild.
func (s *Server) json(cacheable bool, fn func(*http.Request) (any, *apiError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var etag string
		if cacheable {
			etag = EtagFor(s.generation(), PathQuery(r))
			if r.Header.Get("If-None-Match") == etag {
				w.Header().Set("ETag", etag)
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		payload, apiErr := fn(r)
		if apiErr != nil {
			WriteError(w, apiErr.code, apiErr.retryAfter, "%s", apiErr.msg)
			return
		}
		if etag != "" {
			w.Header().Set("ETag", etag)
		}
		WriteJSON(w, http.StatusOK, payload)
	}
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
	if !s.breaker.Allow() {
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
			s.front.Chain.timeouts.Inc()
			s.breaker.OnNeutral()
			return lifestore.ASNLives{}, false, errf(http.StatusGatewayTimeout,
				"deadline exceeded reading AS%s", a)
		}
		s.breaker.OnFailure()
		return lifestore.ASNLives{}, false, errf(http.StatusInternalServerError, "reading AS%s: %v", a, err)
	}
	s.breaker.OnSuccess()
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
	sample := series.Sample(stride)
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
	c := s.src.Taxonomy()
	t := c.Shares()
	return taxonomyResponse{
		AdminComplete: c.AdminComplete,
		AdminPartial:  c.AdminPartial,
		AdminUnused:   c.AdminUnused,
		OpComplete:    c.OpComplete,
		OpPartial:     c.OpPartial,
		OpOutside:     c.OpOutside,
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
	Pipeline  faults.Health           `json:"pipeline"`
	Endpoints map[string]endpointJSON `json:"endpoints"`
	Lifecycle lifecycleJSON           `json:"lifecycle"`
	// Ingest is the live-tail ingestion status when the server fronts a
	// streaming daemon (Options.Ingest); absent for cold snapshots.
	Ingest any `json:"ingest,omitempty"`
}

func (s *Server) handleHealth(*http.Request) (any, *apiError) {
	m := s.src.Meta()
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
		Endpoints: make(map[string]endpointJSON, len(s.front.endpoints)),
	}
	for label, em := range s.front.endpoints {
		resp.Endpoints[label] = endpointJSON{
			Requests:       em.requests.Value(),
			Errors:         em.errors.Value(),
			TotalLatencyNs: int64(em.latency.Sum() * 1e9),
			LatencyP50Ns:   int64(em.latency.Quantile(0.5) * 1e9),
			LatencyP99Ns:   int64(em.latency.Quantile(0.99) * 1e9),
		}
	}
	cs := s.front.Chain.Stats()
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

// ready is the readiness rule: not while the lifestore breaker is open
// (most lookups would be short-circuited anyway, so drain traffic
// elsewhere until the store recovers).
func (s *Server) ready() (bool, string) {
	if state, _, _, _ := s.breaker.Snapshot(); state == "open" {
		return false, "lifestore circuit open"
	}
	return true, ""
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

// ShardRange is the shard's ASN range in /v1/shard.
type ShardRange struct {
	Index int     `json:"index"`
	Count int     `json:"count"`
	Lo    asn.ASN `json:"lo"`
	Hi    asn.ASN `json:"hi"`
	Sum   string  `json:"sum"`
}

// ShardIdentity is the /v1/shard payload: what this process tells a
// router's handshake, and what the router decodes.
type ShardIdentity struct {
	Sharded    bool        `json:"sharded"`
	Shard      *ShardRange `json:"shard,omitempty"`
	Generation int64       `json:"generation"`
	ASNCount   int         `json:"asnCount"`
	Replica    string      `json:"replica"`
}

// handleShard reports this process's shard identity — the router's
// handshake endpoint. An unsharded server answers sharded=false rather
// than 404, so a router probe can distinguish "not a shard" from "not a
// parallellives server at all".
func (s *Server) handleShard(*http.Request) (any, *apiError) {
	resp := ShardIdentity{Generation: s.generation(), ASNCount: s.src.ASNCount(), Replica: s.replica}
	if sh, ok := s.src.(Sharder); ok {
		if si := sh.Shard(); si != nil {
			resp.Sharded = true
			resp.Shard = &ShardRange{
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
	return s.front.Exemplars.Snapshot(), nil
}

// handleStages serves the build's stage trace when the dataset was
// built with observability attached to the same Obs this server uses.
func (s *Server) handleStages(*http.Request) (any, *apiError) {
	summaries := s.front.Obs.Tracer.Summary()
	if len(summaries) == 0 {
		return nil, errf(http.StatusNotFound,
			"no stage trace recorded: build the dataset with the same observability core this server was given")
	}
	return summaries, nil
}
