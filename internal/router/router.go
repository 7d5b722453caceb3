// Package router is the scatter-gather front of the sharded serving
// tier. It speaks the exact same HTTP surface as a single `parallellives serve`
// process — that equivalence is tested byte-for-byte — but answers from
// a fleet of shard processes, each serving one contiguous ASN range of
// a sharded snapshot (lifestore.SaveSharded), with up to R replicas per
// range.
//
// Routing rules per endpoint:
//
//	/v1/asn/{n}        exactly one shard range owns every ASN (the shard
//	                   plan partitions the whole 32-bit space), so the
//	                   request is proxied to its owner's replica set; a
//	                   malformed ASN is rejected locally with the serving
//	                   tier's exact 400
//	/v1/rir/{r}/series every shard carries the global sections whole, so
//	/v1/taxonomy       aggregates scatter to all ranges and keep the
//	                   lowest-index healthy answer, whatever order the
//	                   answers arrive in
//	/v1/stages         proxied to the lowest-index healthy range
//	/v1/health         router lifecycle + per-range states, with the
//	                   store/pipeline sections gathered from the lowest
//	                   healthy range so clients read one merged document
//	/v1/shards         the live topology: ranges, replicas, generations,
//	                   breakers
//	/v1/admin/reload   snapshot reload, fanned out to every replica; the
//	                   router cache is invalidated afterwards
//	/v1/admin/topology/reload
//	                   POST: re-run the handshake against the configured
//	                   URL set and swap the routing table — admit
//	                   replicas that answer, retire ones that don't
//	                   (zero-downtime rolling restarts; §14)
//
// Within a replica set, reads spread round-robin across closed-breaker
// replicas; a replica whose breaker is open is never picked while a
// sibling is closed. A failed read fails over to the next replica
// before any error surfaces — killing one replica of R≥2 produces zero
// client-visible errors, just a failover (marked on the response with
// X-Parallellives-Failover). Options.HedgeAfter additionally arms a
// hedged second request per attempt: if the picked replica has not
// answered within the threshold, the next one is asked too, first
// answer wins, the loser is cancelled (X-Parallellives-Hedge: win).
//
// Degradation is per range: every replica sits behind its own circuit
// breaker (serve.Breaker), and a range is dark only when all its
// replicas' breakers are open — then its ASN range fails fast with
// 503 + Retry-After while every other range keeps serving. Aggregates
// follow Options.Policy: "partial" serves from the surviving ranges and
// marks the response with the X-Parallellives-Partial header; "strict"
// answers 503 as soon as any range is dark.
//
// The router keeps a small response cache and answers its hits itself,
// with no upstream request, for as long as it can vouch for the range's
// generation: a reload fan-out, a topology rebuild or a probe that sees a
// replica's generation move invalidates every entry at once, and a hit
// whose range is dark takes the live path instead. See DESIGN.md §12
// and §14.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/obs"
	"parallellives/internal/serve"
)

// Registry metric names the router publishes. The lifecycle chain's
// gauges keep their serve_* names (the chain is shared code); everything
// router-specific lives under route_*.
const (
	MetricRequests = "parallellives_route_requests_total"
	MetricErrors   = "parallellives_route_errors_total"
	MetricLatency  = "parallellives_route_request_seconds"

	MetricShardRequests = "parallellives_route_shard_requests_total"
	MetricShardErrors   = "parallellives_route_shard_errors_total"

	MetricBreakerState         = "parallellives_route_breaker_state"
	MetricBreakerTrips         = "parallellives_route_breaker_trips_total"
	MetricBreakerShortCircuits = "parallellives_route_breaker_short_circuits_total"

	MetricPartials      = "parallellives_route_partial_total"
	MetricDisagreements = "parallellives_route_disagreements_total"

	// Replica failover + hedging (§14). Failovers are labelled by shard
	// range; hedges are fleet-wide totals.
	MetricFailovers = "parallellives_route_failovers_total"
	MetricHedges    = "parallellives_route_hedges_total"
	MetricHedgeWins = "parallellives_route_hedge_wins_total"

	// Topology swaps (RebuildTopology).
	MetricTopologyGen     = "parallellives_route_topology_generation"
	MetricTopologyReloads = "parallellives_route_topology_reloads_total"

	MetricCacheHits    = "parallellives_route_cache_hits"
	MetricCacheMisses  = "parallellives_route_cache_misses"
	MetricCacheEntries = "parallellives_route_cache_entries"
)

// PartialHeader marks a scatter response assembled without every shard
// range. Its value lists the unavailable range indexes, comma-separated.
const PartialHeader = "X-Parallellives-Partial"

// FailoverHeader marks a response that survived one or more replica
// failures; its value is how many replicas failed before one answered.
// It never appears when the first-picked replica answers, so responses
// from a healthy fleet stay byte-identical to a single process.
const FailoverHeader = "X-Parallellives-Failover"

// HedgeHeader marks a response won by a hedged second request
// (value "win").
const HedgeHeader = "X-Parallellives-Hedge"

// Policies for aggregate endpoints when shard ranges are down.
const (
	// PolicyPartial serves what the surviving ranges can answer and
	// marks the response with PartialHeader.
	PolicyPartial = "partial"
	// PolicyStrict refuses (503) as soon as any range is down.
	PolicyStrict = "strict"
)

// Options configures a Router.
type Options struct {
	// Shards lists the replica base URLs (e.g. http://127.0.0.1:8081),
	// in any order: the handshake groups them by their self-reported
	// shard index, so several URLs serving the same range form that
	// range's replica set.
	Shards []string
	// Policy is PolicyPartial (default) or PolicyStrict.
	Policy string
	// ReplicasMin is the minimum replicas every range must have for a
	// topology (startup or reload) to be accepted (default 1).
	ReplicasMin int
	// HedgeAfter, when positive, arms hedged reads: if the picked
	// replica has not answered within this duration, the next healthy
	// replica is asked too — first answer wins, the loser is cancelled.
	// Zero (default) disables hedging.
	HedgeAfter time.Duration
	// CacheSize is the router response-cache capacity in entries
	// (default 256; negative disables).
	CacheSize int
	// MaxInFlight and RequestTimeout configure the lifecycle chain
	// (defaults 512 and 10s, as in serve.Options).
	MaxInFlight    int
	RequestTimeout time.Duration
	// BreakerThreshold / BreakerCooldown configure each replica's
	// circuit breaker (defaults 5 and 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HandshakeTimeout bounds the startup handshake during which every
	// replica must report its identity (default 10s). Topology reloads
	// reuse it as the window after which unreachable replicas are
	// retired.
	HandshakeTimeout time.Duration
	// ScrapeInterval is ignored: the router no longer scrapes its fleet.
	// The field exists only because benchmark/ names it, and goes when
	// ROADMAP 1(f) shrinks the pinned surface.
	ScrapeInterval time.Duration
	// ExemplarCapacity sizes the slow/error exemplar ring serving
	// /v1/debug/slow (default 32; negative disables capture).
	ExemplarCapacity int
	// SpanIDs overrides the trace/span ID source (tests). Nil uses
	// crypto-grade-enough random hex.
	SpanIDs obs.IDSource
	// Client is the HTTP client for shard traffic (default: pooled
	// transport, no client-level timeout — deadlines come from the
	// request context).
	Client *http.Client
	// Obs supplies the observability core. Nil gets a private obs.New().
	Obs *obs.Obs
}

// Router fronts a fleet of shard replicas as one HTTP surface. It is
// safe for concurrent use. The routing table lives behind an atomic
// pointer: requests load it once and finish against that generation
// even while RebuildTopology swaps in a new one.
type Router struct {
	policy string

	// Static fleet configuration, reused by every topology rebuild.
	urls             []string
	replicasMin      int
	hedgeAfter       time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	handshakeTimeout time.Duration
	client           *http.Client

	topo      atomic.Pointer[topology]
	rebuildMu sync.Mutex // serializes RebuildTopology

	front *serve.Front
	cache *LRU[entry]
	epoch atomic.Uint64 // cache epoch: entries from an older one are never answered

	shardRequests *obs.CounterVec
	shardErrors   *obs.CounterVec
	failovers     *obs.CounterVec
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
	partials      *obs.Counter
	disagreements *obs.Counter
	topoGen       *obs.Gauge
	topoReloads   *obs.CounterVec
	breakerState  *obs.GaugeVec
	breakerTrips  *obs.CounterVec
	breakerShorts *obs.CounterVec
}

// New connects to every replica, verifies that together they form one
// complete plan (every range covered, one fingerprint), and builds the
// routing front. Startup is strict — every listed URL must answer — and
// it fails rather than serve with holes: a router that cannot see every
// range would turn part of the ASN space into silent 404s. Once
// serving, RebuildTopology relaxes that to "every range still covered".
func New(ctx context.Context, opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("router: no shard URLs")
	}
	if opts.Policy == "" {
		opts.Policy = PolicyPartial
	}
	if opts.Policy != PolicyPartial && opts.Policy != PolicyStrict {
		return nil, fmt.Errorf("router: unknown policy %q (want %s or %s)", opts.Policy, PolicyPartial, PolicyStrict)
	}
	if opts.ReplicasMin <= 0 {
		opts.ReplicasMin = 1
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = 10 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * len(opts.Shards),
			MaxIdleConnsPerHost: 4,
		}}
	}
	front := serve.NewFront(serve.Names{
		Span:     "route",
		Requests: MetricRequests, Errors: MetricErrors, Latency: MetricLatency,
		FailFrom: http.StatusInternalServerError,
	}, opts.Obs, serve.ChainOptions{MaxInFlight: opts.MaxInFlight, RequestTimeout: opts.RequestTimeout},
		opts.ExemplarCapacity, opts.SpanIDs)
	reg := front.Obs.Registry

	urls := make([]string, 0, len(opts.Shards))
	for _, base := range opts.Shards {
		urls = append(urls, strings.TrimRight(base, "/"))
	}

	rt := &Router{
		policy: opts.Policy,

		urls:             urls,
		replicasMin:      opts.ReplicasMin,
		hedgeAfter:       opts.HedgeAfter,
		breakerThreshold: opts.BreakerThreshold,
		breakerCooldown:  opts.BreakerCooldown,
		handshakeTimeout: opts.HandshakeTimeout,
		client:           opts.Client,

		front: front,
		cache: NewLRU[entry](CacheCapacity(opts.CacheSize)),
		shardRequests: reg.CounterVec(MetricShardRequests,
			"Upstream requests by shard range and replica ordinal.", "shard", "replica"),
		shardErrors: reg.CounterVec(MetricShardErrors,
			"Upstream failures (transport or 5xx) by shard range and replica ordinal.", "shard", "replica"),
		failovers: reg.CounterVec(MetricFailovers,
			"Reads that failed over to another replica of the same range.", "shard"),
		hedges: reg.Counter(MetricHedges,
			"Hedged second requests launched after the latency threshold."),
		hedgeWins: reg.Counter(MetricHedgeWins,
			"Reads answered by the hedged request instead of the first pick."),
		partials: reg.Counter(MetricPartials,
			"Aggregate responses served without every shard range."),
		disagreements: reg.Counter(MetricDisagreements,
			"Scatter gathers where healthy ranges returned different answers."),
		topoGen: reg.Gauge(MetricTopologyGen,
			"Routing-table generation: bumps on every accepted topology reload."),
		topoReloads: reg.CounterVec(MetricTopologyReloads,
			"Topology reloads by outcome (ok, error).", "outcome"),
		breakerState: reg.GaugeVec(MetricBreakerState,
			"Per-replica circuit-breaker state (0 closed, 1 open, 2 half-open).", "shard", "replica"),
		breakerTrips: reg.CounterVec(MetricBreakerTrips,
			"Times a replica's circuit breaker opened.", "shard", "replica"),
		breakerShorts: reg.CounterVec(MetricBreakerShortCircuits,
			"Requests rejected while a replica's breaker was open.", "shard", "replica"),
	}
	topo, err := rt.buildTopology(ctx, 1, false)
	if err != nil {
		return nil, err
	}
	rt.topo.Store(topo)
	rt.topoGen.Set(float64(topo.generation))

	front.Handle("GET /v1/asn/{n}", rt.handleASN)
	front.Handle("GET /v1/rir/{r}/series", rt.handleAggregate)
	front.Handle("GET /v1/taxonomy", rt.handleAggregate)
	front.Handle("GET /v1/stages", rt.handleStages)
	front.Handle("GET /v1/health", rt.handleHealth)
	front.Handle("GET /v1/shards", rt.handleShards)
	front.Handle("GET /v1/debug/slow", rt.handleSlow)
	front.Handle("POST /v1/admin/reload", rt.handleReload)
	front.Handle("POST /v1/admin/topology/reload", rt.handleTopologyReload)
	front.Probes(rt.ready, rt.cache.mirror(reg))
	return rt, nil
}

const maxASN = 1<<32 - 1

// ServeHTTP implements http.Handler (see serve.Front.ServeHTTP).
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.front.ServeHTTP(w, r) }

// Start launches the background probe loop and returns a stop func that
// waits for it to exit. Probing keeps generations fresh and — because
// identity requests run through each breaker — turns a recovered
// replica closed again without sacrificing a client request. The first
// probe is one interval in: New has only just shaken hands.
func (rt *Router) Start(ctx context.Context, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	pctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-pctx.Done():
				return
			case <-t.C:
				rt.Probe(pctx)
			}
		}
	}()
	return func() { cancel(); <-done }
}

// Probe re-handshakes every replica of the live topology once,
// concurrently. A replica whose generation moved since it last reported
// was reloaded behind the router's back, so the cache is invalidated.
func (rt *Router) Probe(ctx context.Context) {
	moved := false
	for _, rep := range askReplicas(ctx, rt.topo.Load(), 2*time.Second, http.MethodGet, "/v1/shard") {
		_, before, _ := rep.sc.state()
		id, err := rep.sc.noteIdentity(rep.u, rep.err)
		moved = moved || (err == nil && id.Generation != before)
	}
	if moved {
		rt.invalidate()
	}
}

// invalidate retires every cached entry: the epoch bump fences out
// entries whose fetch was still in flight, the flush frees the rest.
func (rt *Router) invalidate() {
	rt.epoch.Add(1)
	rt.cache.Flush()
}

// usable reports whether a cached entry may be answered locally from set:
// it was fetched from that range in the current cache epoch, and the range
// is not dark — a dark range's reads take the live path and its
// degradation answers.
func (e entry) usable(epoch uint64, set *replicaSet) bool {
	return e.epoch == epoch && e.shard == set.index && !set.dark()
}

// serveVia answers one request against a replica set through the router
// cache: a usable entry is answered locally, anything else is fetched
// through fetchSet (replica failover and hedging apply) and a 200 with a
// validator is cached under the epoch read before the fetch began.
func (rt *Router) serveVia(w http.ResponseWriter, r *http.Request, set *replicaSet) {
	key := serve.PathQuery(r)
	clientINM := r.Header.Get("If-None-Match")
	epoch := rt.epoch.Load()

	if e, ok := rt.cache.Get(key); ok && e.usable(epoch, set) {
		answer(w, clientINM, &e.resp)
		return
	}

	u, _, meta, err := rt.fetchSet(r.Context(), set, http.MethodGet, key, clientINM)
	if err != nil {
		rt.rangeError(w, r, set)
		return
	}
	if u.status == http.StatusOK && u.etag != "" {
		rt.cache.Put(key, entry{shard: set.index, epoch: epoch, resp: *u})
	}
	meta.mark(w.Header())
	relay(w, u)
}

// answer relays a cached response, downgraded to an empty 304 when the
// client's own validator already matches it.
func answer(w http.ResponseWriter, clientINM string, u *upstream) {
	if u.status == http.StatusOK && clientINM != "" && clientINM == u.etag {
		u = &upstream{status: http.StatusNotModified, etag: u.etag}
	}
	relay(w, u)
}

// rangeError classifies a range whose every replica refused: the
// router's deadline maps to 504 (matching the serving tier's own
// taxonomy), everything else to the fail-fast 503.
func (rt *Router) rangeError(w http.ResponseWriter, r *http.Request, set *replicaSet) {
	if r.Context().Err() != nil {
		rt.front.Chain.Timeouts().Inc()
		serve.WriteError(w, http.StatusGatewayTimeout, 0, "deadline exceeded querying shard %d", set.index)
		return
	}
	serve.WriteError(w, http.StatusServiceUnavailable, 1, "shard %d (AS%s-AS%s) unavailable; retrying shortly", set.index, set.lo, set.hi)
}

// handleASN routes a single-ASN read to the replica set whose range
// owns it. Malformed ASNs never cross the network: the router answers
// the serving tier's exact 400 itself.
func (rt *Router) handleASN(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(strings.TrimPrefix(r.PathValue("n"), "AS"), "as")
	a, err := asn.Parse(raw)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, 0, "bad ASN %q", r.PathValue("n"))
		return
	}
	rt.serveVia(w, r, rt.topo.Load().setFor(a))
}

// handleStages proxies the build trace from the lowest-index healthy
// range (every shard of one build carries the same snapshot metadata).
func (rt *Router) handleStages(w http.ResponseWriter, r *http.Request) {
	set := rt.firstHealthy(rt.topo.Load())
	if set == nil {
		serve.WriteError(w, http.StatusServiceUnavailable, 1, "no shard available")
		return
	}
	rt.serveVia(w, r, set)
}

// firstHealthy returns the lowest-index range with at least one
// non-open replica, or nil when every range is dark.
func (rt *Router) firstHealthy(topo *topology) *replicaSet {
	for _, set := range topo.sets {
		if !set.dark() {
			return set
		}
	}
	return nil
}

// handleAggregate answers the global endpoints (series, taxonomy).
// Every shard carries the global sections whole, so the router needs
// any one authoritative copy: it fans the request out to every range —
// one failover-capable fetch per range, not per replica. The winner is
// deterministic — the lowest-index healthy range, whichever answers
// first — and an agreement check across the other healthy answers
// feeds a disagreement counter (mixed shard generations are legal mid-rollout, but persistent
// disagreement means a mixed shard set and deserves an alert). A cached
// answer is served locally while its winner range is usable; a dark
// winner takes the full gather, so the partial mark or the strict 503
// still apply.
func (rt *Router) handleAggregate(w http.ResponseWriter, r *http.Request) {
	topo := rt.topo.Load()
	key := serve.PathQuery(r)
	clientINM := r.Header.Get("If-None-Match")
	epoch := rt.epoch.Load()

	if e, ok := rt.cache.Get(key); ok && e.shard < len(topo.sets) && e.usable(epoch, topo.sets[e.shard]) {
		answer(w, clientINM, &e.resp)
		return
	}

	type result struct {
		u    *upstream
		meta fetchMeta
		err  error
	}
	results := make([]result, len(topo.sets))
	var wg sync.WaitGroup
	for i, set := range topo.sets {
		wg.Add(1)
		go func(i int, set *replicaSet) {
			defer wg.Done()
			u, _, meta, err := rt.fetchSet(r.Context(), set, http.MethodGet, key, clientINM)
			results[i] = result{u: u, meta: meta, err: err}
		}(i, set)
	}
	wg.Wait()

	var winner *upstream
	winnerSet := -1
	var meta fetchMeta
	var down []string
	for i, res := range results {
		meta.failovers += res.meta.failovers
		meta.hedgeWin = meta.hedgeWin || res.meta.hedgeWin
		if res.err != nil {
			down = append(down, strconv.Itoa(i))
			continue
		}
		if winner == nil {
			winner, winnerSet = res.u, i
		} else if res.u.status != winner.status || !equalBody(res.u, winner) {
			rt.disagreements.Inc()
		}
	}
	if winner == nil {
		if r.Context().Err() != nil {
			rt.front.Chain.Timeouts().Inc()
			serve.WriteError(w, http.StatusGatewayTimeout, 0, "deadline exceeded querying shards")
			return
		}
		serve.WriteError(w, http.StatusServiceUnavailable, 1, "no shard available")
		return
	}
	if len(down) > 0 {
		if rt.policy == PolicyStrict {
			serve.WriteError(w, http.StatusServiceUnavailable, 1, "strict policy: shard(s) %s unavailable", strings.Join(down, ","))
			return
		}
		rt.partials.Inc()
		w.Header().Set(PartialHeader, strings.Join(down, ","))
	}
	if winner.status == http.StatusOK && winner.etag != "" && len(down) == 0 {
		rt.cache.Put(key, entry{shard: winnerSet, epoch: epoch, resp: *winner})
	}
	meta.mark(w.Header())
	relay(w, winner)
}

// equalBody compares two gathered responses; 304s compare by validator
// (their bodies are empty by construction).
func equalBody(a, b *upstream) bool {
	if a.status == http.StatusNotModified || b.status == http.StatusNotModified {
		return a.etag == b.etag
	}
	return string(a.body) == string(b.body)
}

// replicaStateJSON is one replica's row inside a range's entry in
// /v1/shards and /v1/health.
type replicaStateJSON struct {
	URL      string `json:"url"`
	Replica  string `json:"replica"`
	Ordinal  int    `json:"ordinal"`
	Breaker  string `json:"breaker"`
	Gen      int64  `json:"gen"`
	ASNCount int    `json:"asnCount"`
}

// shardStateJSON is one shard range's row in /v1/shards and /v1/health.
type shardStateJSON struct {
	Index    int                `json:"index"`
	Lo       asn.ASN            `json:"lo"`
	Hi       asn.ASN            `json:"hi"`
	ASNs     int                `json:"asns"`
	Dark     bool               `json:"dark"`
	Replicas []replicaStateJSON `json:"replicas"`
}

func (rt *Router) shardStates(topo *topology) []shardStateJSON {
	out := make([]shardStateJSON, len(topo.sets))
	for i, set := range topo.sets {
		row := shardStateJSON{
			Index: set.index, Lo: set.lo, Hi: set.hi,
			ASNs: topo.plan.Ranges[i].ASNs, Dark: set.dark(),
		}
		for _, sc := range set.replicas {
			state, gen, count := sc.state()
			row.Replicas = append(row.Replicas, replicaStateJSON{
				URL: sc.baseURL, Replica: sc.replica, Ordinal: sc.ordinal,
				Breaker: state, Gen: gen, ASNCount: count,
			})
		}
		out[i] = row
	}
	return out
}

// handleShards is the topology endpoint: the table the router routes by.
func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	topo := rt.topo.Load()
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"count":       topo.plan.Count,
		"sum":         topo.sum,
		"generation":  topo.generation,
		"policy":      rt.policy,
		"replicasMin": rt.replicasMin,
		"shards":      rt.shardStates(topo),
	})
}

// routerHealthJSON is the router's own section of /v1/health.
type routerHealthJSON struct {
	Policy    string           `json:"policy"`
	Topology  int64            `json:"topologyGeneration"`
	Lifecycle serve.ChainStats `json:"lifecycle"`
	Cache     CacheStats       `json:"cache"`
	Partials  int64            `json:"partials"`
	Failovers int64            `json:"failovers"`
	HedgeWins int64            `json:"hedgeWins"`
	Shards    []shardStateJSON `json:"shards"`
}

// handleHealth merges the dataset view (store + pipeline sections,
// gathered live from the lowest-index healthy range — global sections
// are identical on every shard) with the router's own lifecycle state.
// With every range down the document still answers 200: the router is
// alive, and the shard table shows exactly what is not.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	topo := rt.topo.Load()
	doc := map[string]json.RawMessage{}
	if set := rt.firstHealthy(topo); set != nil {
		if u, _, _, err := rt.fetchSet(r.Context(), set, http.MethodGet, "/v1/health", ""); err == nil && u.status == http.StatusOK {
			var shardDoc map[string]json.RawMessage
			if json.Unmarshal(u.body, &shardDoc) == nil {
				for _, k := range []string{"store", "pipeline"} {
					if v, ok := shardDoc[k]; ok {
						doc[k] = v
					}
				}
			}
		}
	}
	var failovers int64
	for _, set := range topo.sets {
		failovers += rt.failovers.With(strconv.Itoa(set.index)).Value()
	}
	hits, misses, size, capacity := rt.cache.Stats()
	routerSection, err := json.Marshal(routerHealthJSON{
		Policy:    rt.policy,
		Topology:  topo.generation,
		Lifecycle: rt.front.Chain.Stats(),
		Cache:     CacheStats{Hits: hits, Misses: misses, Size: size, Capacity: capacity},
		Partials:  rt.partials.Value(),
		Failovers: failovers,
		HedgeWins: rt.hedgeWins.Value(),
		Shards:    rt.shardStates(topo),
	})
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, 0, "encoding health: %v", err)
		return
	}
	doc["router"] = routerSection
	serve.WriteJSON(w, http.StatusOK, doc)
}

// reply is one replica's answer to a fleet-wide ask.
type reply struct {
	sc  *shardClient
	u   *upstream // nil when err is set
	err error
}

// askReplicas sends one request to every replica of topo concurrently
// and returns the answers in topo.replicas order. Each goes through the
// replica's breaker-guarded client, so a dark replica costs one fast
// failure and a recovered one closes its breaker here, without spending
// a client request on the half-open probe. These are the router's own
// questions, not client reads: no failover, no hedging, and no entry in
// the per-replica request counters. timeout > 0 bounds the whole round.
func askReplicas(ctx context.Context, topo *topology, timeout time.Duration, method, path string) []reply {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	replies := make([]reply, len(topo.replicas))
	var wg sync.WaitGroup
	for i, sc := range topo.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, err := sc.fetch(ctx, method, path, "")
			replies[i] = reply{sc, u, err}
		}()
	}
	wg.Wait()
	return replies
}

// replicaRow names the replica a row of a fleet-wide answer is about.
type replicaRow struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	URL     string `json:"url"`
}

func (r reply) row() replicaRow { return replicaRow{r.sc.index, r.sc.ordinal, r.sc.baseURL} }

// failure says why the replica did not answer 200, or "" when it did.
func (r reply) failure() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.u.status != http.StatusOK:
		return fmt.Sprintf("status %d: %s", r.u.status, r.u.body)
	}
	return ""
}

// handleReload fans the snapshot reload out to every replica of every
// range and invalidates the router cache afterwards — cached bodies must
// not outlive the generations that rendered them. 200 only when every
// replica swapped; any failure reports 502 with the per-replica
// outcomes (the replicas that did swap keep their new generation; the
// document says which retry is needed).
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	type outcome struct {
		replicaRow
		OK    bool            `json:"ok"`
		Gen   json.RawMessage `json:"gen,omitempty"`
		Error string          `json:"error,omitempty"`
	}
	var outcomes []outcome
	status := http.StatusOK
	for _, rep := range askReplicas(r.Context(), rt.topo.Load(), 0, http.MethodPost, "/v1/admin/reload") {
		o := outcome{replicaRow: rep.row(), Error: rep.failure()}
		if o.Error == "" {
			o.OK, o.Gen = true, rep.u.body
		} else {
			status = http.StatusBadGateway
		}
		outcomes = append(outcomes, o)
	}
	rt.invalidate()
	serve.WriteJSON(w, status, map[string]any{"results": outcomes})
}

// shardSlowJSON is one replica's row in the router's /v1/debug/slow.
type shardSlowJSON struct {
	replicaRow
	Exemplars json.RawMessage `json:"exemplars,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// handleSlow aggregates slow-request exemplars across the fleet: the
// router's own ring plus each replica's /v1/debug/slow. A dark replica
// becomes an error row, never a failure — this is a debugging endpoint
// and partial truth beats none.
func (rt *Router) handleSlow(w http.ResponseWriter, r *http.Request) {
	var rows []shardSlowJSON
	for _, rep := range askReplicas(r.Context(), rt.topo.Load(), 0, http.MethodGet, "/v1/debug/slow") {
		row := shardSlowJSON{replicaRow: rep.row(), Error: rep.failure()}
		if row.Error == "" {
			row.Exemplars = rep.u.body
		}
		rows = append(rows, row)
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"router": rt.front.Exemplars.Snapshot(),
		"shards": rows,
	})
}

// ready is the readiness rule: the router can still answer — every
// range lit under strict policy, at least one under partial. A range is
// dark only when all of its replicas' breakers are open. (Single-ASN
// reads for a dark range fail fast either way; readiness is about
// whether the router deserves traffic at all.)
func (rt *Router) ready() (bool, string) {
	topo := rt.topo.Load()
	dark := 0
	for _, set := range topo.sets {
		if set.dark() {
			dark++
		}
	}
	if (rt.policy == PolicyStrict && dark > 0) || dark == len(topo.sets) {
		return false, fmt.Sprintf("%d/%d shard ranges dark", dark, len(topo.sets))
	}
	return true, ""
}
