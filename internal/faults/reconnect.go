package faults

import (
	"context"
	"errors"
	"time"
)

// ErrRetriesExhausted reports that a Reconnector paced MaxAttempts
// consecutive failures without an intervening Reset — the bounded-retry
// giving-up signal a streaming consumer turns into a hard error.
var ErrRetriesExhausted = errors.New("faults: reconnect attempts exhausted")

// Reconnector paces a streaming source's reconnect loop with the
// Retrier's bounded deterministic backoff: each consecutive failure
// waits Backoff(n) before the next attempt, a success resets the
// ladder, and MaxAttempts consecutive failures exhaust the budget. It
// is the connection-level sibling of Retrier, which paces individual
// reads — a live tail holds one Reconnector for the lifetime of its
// source and Waits once per staleness or transport error.
type Reconnector struct {
	pol     RetryPolicy
	attempt int
	stats   RetryStats
}

// NewReconnector returns a reconnector with the policy (zero fields
// take the Retrier defaults).
func NewReconnector(pol RetryPolicy) *Reconnector {
	return &Reconnector{pol: pol.withDefaults()}
}

// Wait blocks for the backoff preceding the next reconnect attempt.
// With Sleep injected the wait is delegated to it (tests pass a fake
// clock); otherwise the wait really sleeps and cancelling ctx returns
// ctx.Err() promptly. Once MaxAttempts consecutive Waits have run
// without a Reset, further calls return ErrRetriesExhausted without
// waiting.
func (r *Reconnector) Wait(ctx context.Context) error {
	if r.attempt >= r.pol.MaxAttempts {
		r.stats.Abandoned++
		return ErrRetriesExhausted
	}
	r.attempt++
	r.stats.Retries++
	d := r.pol.Backoff(r.attempt)
	r.stats.Backoff += d
	if r.pol.Sleep != nil {
		r.pol.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Reset marks a successful (re)connection: the backoff ladder and the
// attempt budget start over.
func (r *Reconnector) Reset() { r.attempt = 0 }

// Stats returns the pacing counters accumulated so far.
func (r *Reconnector) Stats() RetryStats { return r.stats }
