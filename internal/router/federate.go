package router

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"parallellives/internal/obs"
	"parallellives/internal/serve"
	"parallellives/internal/stream"
)

// Fleet rollup metric names. The router scrapes every replica's
// /metrics and re-exports the fleet view under parallellives_fleet_*
// with bounded `shard` (range index) and `replica` (ordinal within the
// range) labels — one series per replica slot, never per ASN or per
// path, per the DESIGN.md §8 cardinality budget. Ordinals, not replica
// IDs: a range's series count is its replica count no matter how often
// the processes behind it restart. Mirrored counter readings are
// exported as gauges ("the value last scraped"), so only the router's
// own scrape counter keeps the _total suffix.
const (
	MetricFleetRequests = "parallellives_fleet_requests"
	MetricFleetErrors   = "parallellives_fleet_errors"
	MetricFleetP50      = "parallellives_fleet_request_p50_seconds"
	MetricFleetP99      = "parallellives_fleet_request_p99_seconds"
	MetricFleetInflight = "parallellives_fleet_inflight"
	MetricFleetGen      = "parallellives_fleet_generation"
	MetricFleetLag      = "parallellives_fleet_ingest_lag_days"
	MetricFleetUp       = "parallellives_fleet_shard_up"
	MetricFleetLastUnix = "parallellives_fleet_scrape_last_unix_seconds"
	MetricFleetScrapes  = "parallellives_fleet_scrapes_total"

	// Derived fleet-wide gauges (no labels).
	MetricFleetGenSkew      = "parallellives_fleet_generation_skew"
	MetricFleetLagMax       = "parallellives_fleet_ingest_lag_days_max"
	MetricFleetBreakersOpen = "parallellives_fleet_breakers_open"
	MetricFleetShards       = "parallellives_fleet_shards"
	MetricFleetReplicas     = "parallellives_fleet_replicas"
)

// sysClock is the federator's default clock; tests swap in a FakeClock
// so the last-scrape timestamp is deterministic.
type sysClock struct{}

func (sysClock) Now() time.Time { return time.Now() }

// federator owns the fleet rollup instruments. Scrapes re-set the
// per-replica gauges wholesale — the rollup is a snapshot of the fleet,
// not an accumulation, so a restarted replica's counters going
// backwards is fine by construction.
type federator struct {
	clock obs.Clock

	reqs     *obs.GaugeVec
	errs     *obs.GaugeVec
	p50      *obs.GaugeVec
	p99      *obs.GaugeVec
	inflight *obs.GaugeVec
	gen      *obs.GaugeVec
	lag      *obs.GaugeVec
	up       *obs.GaugeVec
	lastUnix *obs.GaugeVec
	scrapes  *obs.CounterVec

	genSkew      *obs.Gauge
	lagMax       *obs.Gauge
	breakersOpen *obs.Gauge
	shardsTotal  *obs.Gauge
	replicas     *obs.Gauge

	// emitted tracks every (shard, replica) pair with live fleet series,
	// so prune can drop the ones a topology swap retired.
	mu      sync.Mutex
	emitted map[[2]string]bool
}

func newFederator(reg *obs.Registry) *federator {
	return &federator{
		clock:   sysClock{},
		emitted: make(map[[2]string]bool),
		reqs: reg.GaugeVec(MetricFleetRequests,
			"Per-replica serve_requests_total as last scraped.", "shard", "replica"),
		errs: reg.GaugeVec(MetricFleetErrors,
			"Per-replica serve_errors_total as last scraped.", "shard", "replica"),
		p50: reg.GaugeVec(MetricFleetP50,
			"Per-replica request latency p50, interpolated from the scraped histogram.", "shard", "replica"),
		p99: reg.GaugeVec(MetricFleetP99,
			"Per-replica request latency p99, interpolated from the scraped histogram.", "shard", "replica"),
		inflight: reg.GaugeVec(MetricFleetInflight,
			"Per-replica in-flight requests as last scraped.", "shard", "replica"),
		gen: reg.GaugeVec(MetricFleetGen,
			"Per-replica snapshot generation from the last probe.", "shard", "replica"),
		lag: reg.GaugeVec(MetricFleetLag,
			"Per-replica streaming ingest lag in days, where the replica runs a tailer.", "shard", "replica"),
		up: reg.GaugeVec(MetricFleetUp,
			"1 when the last scrape of this replica succeeded, else 0.", "shard", "replica"),
		lastUnix: reg.GaugeVec(MetricFleetLastUnix,
			"Unix time of this replica's last successful scrape.", "shard", "replica"),
		scrapes: reg.CounterVec(MetricFleetScrapes,
			"Federation scrapes by shard, replica and outcome (ok, error).", "shard", "replica", "outcome"),
		genSkew: reg.Gauge(MetricFleetGenSkew,
			"Max minus min replica generation: non-zero while a rollout is in flight."),
		lagMax: reg.Gauge(MetricFleetLagMax,
			"Worst streaming ingest lag across replicas reporting one."),
		breakersOpen: reg.Gauge(MetricFleetBreakersOpen,
			"Replica circuit breakers currently open."),
		shardsTotal: reg.Gauge(MetricFleetShards,
			"Shard ranges this router fronts."),
		replicas: reg.Gauge(MetricFleetReplicas,
			"Replica processes this router fronts, across all ranges."),
	}
}

// touch records a (shard, replica) pair as having live fleet series.
func (f *federator) touch(shard, rep string) {
	f.mu.Lock()
	f.emitted[[2]string{shard, rep}] = true
	f.mu.Unlock()
}

// prune drops fleet series for replica slots the given topology no
// longer has.
func (f *federator) prune(topo *topology) {
	live := topo.slots()
	f.mu.Lock()
	defer f.mu.Unlock()
	for key := range f.emitted {
		if live[key] {
			continue
		}
		shard, rep := key[0], key[1]
		f.reqs.Drop(shard, rep)
		f.errs.Drop(shard, rep)
		f.p50.Drop(shard, rep)
		f.p99.Drop(shard, rep)
		f.inflight.Drop(shard, rep)
		f.gen.Drop(shard, rep)
		f.lag.Drop(shard, rep)
		f.up.Drop(shard, rep)
		f.lastUnix.Drop(shard, rep)
		f.scrapes.Drop(shard, rep, "ok")
		f.scrapes.Drop(shard, rep, "error")
		delete(f.emitted, key)
	}
}

// ScrapeFleet scrapes every replica's /metrics concurrently and folds
// the results into the fleet rollup. Replica fetches run through the
// normal breaker-guarded client, so a dark replica costs one fast
// failure — and its scrape outcome, up flag, and stale gauges say so on
// the router's own exposition. No-op when federation is disabled.
func (rt *Router) ScrapeFleet(ctx context.Context) {
	f := rt.fed
	if f == nil {
		return
	}
	topo := rt.topo.Load()
	replies := askReplicas(ctx, topo, 2*time.Second, http.MethodGet, "/metrics")
	now := float64(f.clock.Now().Unix())
	var minGen, maxGen int64
	var lagMax float64
	lagSeen := false
	open := 0
	for i, r := range replies {
		shard, rep := strconv.Itoa(r.sc.index), strconv.Itoa(r.sc.ordinal)
		f.touch(shard, rep)
		state, gen, _ := r.sc.state()
		if state == "open" {
			open++
		}
		if i == 0 || gen < minGen {
			minGen = gen
		}
		if i == 0 || gen > maxGen {
			maxGen = gen
		}
		f.gen.With(shard, rep).Set(float64(gen))

		var samples obs.Samples
		ok := r.failure() == ""
		if ok {
			var err error
			samples, err = obs.ParseExposition(r.u.body)
			ok = err == nil
		}
		if !ok {
			f.scrapes.With(shard, rep, "error").Inc()
			f.up.With(shard, rep).Set(0)
			continue
		}
		f.scrapes.With(shard, rep, "ok").Inc()
		f.up.With(shard, rep).Set(1)
		f.lastUnix.With(shard, rep).Set(now)
		f.reqs.With(shard, rep).Set(samples.Sum(serve.MetricRequests, nil))
		f.errs.With(shard, rep).Set(samples.Sum(serve.MetricErrors, nil))
		f.p50.With(shard, rep).Set(samples.Quantile(serve.MetricLatency, 0.5, nil))
		f.p99.With(shard, rep).Set(samples.Quantile(serve.MetricLatency, 0.99, nil))
		if v, ok := samples.Value(serve.MetricInFlight, nil); ok {
			f.inflight.With(shard, rep).Set(v)
		}
		if v, ok := samples.Value(stream.MetricIngestLagDays, nil); ok {
			f.lag.With(shard, rep).Set(v)
			if !lagSeen || v > lagMax {
				lagMax, lagSeen = v, true
			}
		}
	}
	f.genSkew.Set(float64(maxGen - minGen))
	if lagSeen {
		f.lagMax.Set(lagMax)
	}
	f.breakersOpen.Set(float64(open))
	f.shardsTotal.Set(float64(len(topo.sets)))
	f.replicas.Set(float64(len(topo.replicas)))
}
