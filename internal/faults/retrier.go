package faults

import (
	"io"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/delegation"
)

// RetryPolicy bounds the Retrier's attempts and backoff. The zero value
// selects the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts is the total reads tried per snapshot, the first
	// included (default 4).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; it doubles per
	// attempt up to MaxBackoff (defaults 25ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep, when set, is called with each backoff (tests inject a fake
	// clock; production passes time.Sleep). Nil records virtual backoff
	// in the stats without waiting, keeping runs deterministic in time.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy returns the default bounded policy.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 25 * time.Millisecond, MaxBackoff: 2 * time.Second}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	return p
}

// Backoff returns the deterministic wait before retry attempt n (1-based):
// BaseBackoff doubled per attempt, capped at MaxBackoff.
func (p RetryPolicy) Backoff(n int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}

// RetryStats counts the Retrier's recoveries.
type RetryStats struct {
	Retries   int64         // failed reads that were retried
	Abandoned int64         // snapshots given up on after MaxAttempts
	Backoff   time.Duration // total backoff waited (virtual when Sleep is nil)
}

// Retrier adapts a FallibleSource back into an infallible
// delegation.Source by retrying transient failures with bounded,
// deterministic backoff. Reads that keep failing are abandoned: the day
// is yielded with no files, which the restoration pipeline bridges like
// any other missing day — skip-and-continue rather than abort.
type Retrier struct {
	src   FallibleSource
	pol   RetryPolicy
	stats RetryStats
}

// NewRetrier wraps src with the policy (zero fields take defaults).
func NewRetrier(src FallibleSource, pol RetryPolicy) *Retrier {
	return &Retrier{src: src, pol: pol.withDefaults()}
}

// Registry implements delegation.Source.
func (r *Retrier) Registry() asn.RIR { return r.src.Registry() }

// Stats returns the recovery counters accumulated so far.
func (r *Retrier) Stats() RetryStats { return r.stats }

// Next implements delegation.Source. With no Sleep injected the backoff
// is virtual (recorded, not waited), which keeps batch pipeline runs
// deterministic in time.
func (r *Retrier) Next() (delegation.Snapshot, bool) {
	for attempt := 1; ; attempt++ {
		snap, ok, err := r.src.Next()
		if err == nil {
			return snap, ok
		}
		if attempt >= r.pol.MaxAttempts {
			r.stats.Abandoned++
			return r.src.Abandon()
		}
		r.stats.Retries++
		d := r.pol.Backoff(attempt)
		r.stats.Backoff += d
		if r.pol.Sleep != nil {
			r.pol.Sleep(d)
		}
	}
}

// FlakyReader wraps an io.Reader with deterministic short reads and
// recorded stalls — the slow, bursty transport shape of remote archive
// mirrors. The byte stream itself is unchanged, which is the point:
// consumers built on io.ReadFull/bufio must be insensitive to read
// fragmentation, and tests wrap their inputs in a FlakyReader to prove
// it.
type FlakyReader struct {
	in   *Injector
	r    io.Reader
	salt uint64
	pos  uint64
	// Sleep, when set, receives each stall's duration; nil records the
	// stall without waiting.
	Sleep func(time.Duration)
}

// WrapReader wraps r with the plan's short-read and stall faults. salt
// must be stable per stream.
func (in *Injector) WrapReader(salt uint64, r io.Reader) *FlakyReader {
	return &FlakyReader{in: in, r: r, salt: salt}
}

// Read implements io.Reader.
func (f *FlakyReader) Read(p []byte) (int, error) {
	f.pos++
	if f.in.coin(f.in.plan.StallRate, saltStall, f.salt, f.pos) {
		f.in.rep.stalls.Add(1)
		if f.Sleep != nil {
			d := f.in.plan.StallDuration
			if d <= 0 {
				d = 50 * time.Millisecond
			}
			f.Sleep(d)
		}
	}
	if len(p) > 1 && f.in.coin(f.in.plan.ShortReadRate, saltShortRead, f.salt, f.pos) {
		f.in.rep.shortReads.Add(1)
		cut := 1 + int(f.in.hash(saltShortRead, f.salt, f.pos, 0xfeed)%uint64(len(p)-1))
		p = p[:cut]
	}
	return f.r.Read(p)
}
