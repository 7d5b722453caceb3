package serve

import (
	"sync"
	"time"

	"parallellives/internal/obs"
)

// Breaker states, exported on the state gauge and in /v1/health. The
// wire values are frozen: dashboards alert on them.
const (
	breakerClosed   = 0 // normal operation
	breakerOpen     = 1 // tripping: requests short-circuit
	breakerHalfOpen = 2 // cooled down: one probe request allowed through
)

func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a consecutive-failure circuit breaker. The single-snapshot
// server uses one to guard the lifestore block-decode path; the shard
// router uses one per shard to guard its backend. Closed, it passes
// every request and counts consecutive failures; at threshold it opens,
// and requests short-circuit to 503 without touching the guarded
// resource — a snapshot file on a failing disk, or a dead shard
// process, would otherwise turn every request into a slow error. After
// cooldown it half-opens: exactly one probe request is let through, and
// its outcome decides between closing (recovered) and re-opening (still
// broken).
//
// Context cancellations are deliberately not failures: a client giving
// up says nothing about the guarded resource's health.
//
// A nil Breaker is always closed and records nothing, so a disabled
// breaker (or a router client that has not been admitted to a topology
// yet) needs no conditionals at call sites.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu       sync.Mutex
	state    int
	consec   int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight

	stateGauge    *obs.Gauge
	trips         *obs.Counter
	shortCircuits *obs.Counter
}

// NewBreaker builds a closed breaker publishing its state to the given
// instruments. All three must be non-nil; callers choose the metric
// names (and labels) so one registry can carry many breakers. A zero
// threshold takes the default of 5 consecutive failures, a cooldown of
// zero or less the default 5s.
func NewBreaker(threshold int, cooldown time.Duration, state *obs.Gauge, trips, shortCircuits *obs.Counter) *Breaker {
	if threshold == 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{
		threshold:     threshold,
		cooldown:      cooldown,
		now:           time.Now,
		stateGauge:    state,
		trips:         trips,
		shortCircuits: shortCircuits,
	}
}

// newBreaker builds the serving tier's store breaker under its
// canonical metric names.
func newBreaker(threshold int, cooldown time.Duration, reg *obs.Registry) *Breaker {
	return NewBreaker(threshold, cooldown,
		reg.Gauge(MetricBreakerState,
			"Lifestore circuit-breaker state (0 closed, 1 open, 2 half-open)."),
		reg.Counter(MetricBreakerTrips,
			"Times the lifestore circuit breaker opened."),
		reg.Counter(MetricBreakerShortCircuits,
			"Lookups rejected without touching the store while the breaker was open."))
}

// Allow reports whether a request may proceed. While open it returns
// false (counting a short-circuit) until the cooldown elapses, then
// admits a single probe in half-open state.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.shortCircuits.Inc()
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		b.stateGauge.Set(breakerHalfOpen)
		return true
	default: // half-open
		if b.probing {
			b.shortCircuits.Inc()
			return false
		}
		b.probing = true
		return true
	}
}

// OnSuccess records a success: closed resets the failure run, half-open
// closes the breaker.
func (b *Breaker) OnSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec = 0
	if b.state != breakerClosed {
		b.state = breakerClosed
		b.probing = false
		b.stateGauge.Set(breakerClosed)
	}
}

// OnNeutral records a request that ended without evidence either way —
// a context cancellation says nothing about the resource. Its only
// effect is releasing a half-open probe slot so the next request probes
// instead.
func (b *Breaker) OnNeutral() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// OnFailure records a failure: at threshold consecutive failures the
// breaker opens; a failed half-open probe re-opens immediately.
func (b *Breaker) OnFailure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.open()
	case breakerClosed:
		b.consec++
		if b.consec >= b.threshold {
			b.open()
		}
	}
}

// open transitions to the open state. Callers hold b.mu.
func (b *Breaker) open() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.consec = 0
	b.probing = false
	b.trips.Inc()
	b.stateGauge.Set(breakerOpen)
}

// Snapshot returns the current state for health reporting.
func (b *Breaker) Snapshot() (state string, consecutive int, trips, shortCircuits int64) {
	if b == nil {
		return breakerStateName(breakerClosed), 0, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStateName(b.state), b.consec, b.trips.Value(), b.shortCircuits.Value()
}
