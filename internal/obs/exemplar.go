package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Exemplar is one captured request: its outcome plus the full span tree
// that explains where the time went.
type Exemplar struct {
	CapturedUnixNs int64       `json:"capturedUnixNs"`
	Endpoint       string      `json:"endpoint"` // bounded endpoint label, not the raw path
	Path           string      `json:"path"`     // raw path+query, for operators reading one entry
	Status         int         `json:"status"`
	DurationNs     int64       `json:"durationNs"`
	TraceID        string      `json:"traceId,omitempty"`
	Trace          SpanSummary `json:"trace"`
}

// ExemplarRing keeps the most interesting recent requests: the
// slowest-N ever offered (a min-floor set) and the last-N that failed
// server-side (status >= 500, a circular buffer). The hot path is
// lock-cheap by design: once the slow side is full, a request that is
// neither slow enough nor an error is rejected with a single atomic
// load — the mutex is only taken for requests that will actually be
// kept, which by construction become rarer as the floor rises.
//
// A nil ring no-ops everywhere, so capture can be disabled without
// conditionals at call sites.
type ExemplarRing struct {
	cap   int
	floor atomic.Int64 // admission threshold for the slow side, ns
	seen  atomic.Int64

	mu      sync.Mutex
	slow    []Exemplar // sorted ascending by DurationNs; slow[0] is the next evictee
	errs    []Exemplar // circular once full
	errNext int
}

// NewExemplarRing returns a ring keeping up to capacity exemplars per
// side. capacity <= 0 returns nil (capture disabled).
func NewExemplarRing(capacity int) *ExemplarRing {
	if capacity <= 0 {
		return nil
	}
	return &ExemplarRing{cap: capacity}
}

// Arming reports whether the slow side is still filling: until the ring
// has seen cap requests, every offer is admitted, so callers should
// capture full detail (span trees) up front. Once the floor is set,
// steady-state traffic is rejected with one atomic load and callers can
// skip capture work for requests they expect to be fast — late outliers
// are still admitted, just with outcome-only detail. Nil-safe.
func (r *ExemplarRing) Arming() bool { return r != nil && r.floor.Load() == 0 }

// OfferLazy submits one finished request but defers building the span
// summary to fill, which only runs when the request survives the
// admission fast path — so the per-request cost of capture on a hot,
// healthy endpoint stays a counter bump and one atomic load. A nil fill
// submits e as it is. Nil-safe.
func (r *ExemplarRing) OfferLazy(e Exemplar, fill func() SpanSummary) {
	if r == nil {
		return
	}
	r.seen.Add(1)
	isErr := e.Status >= 500
	if !isErr && e.DurationNs <= r.floor.Load() {
		return // full slow side and too fast to qualify: one atomic load
	}
	if fill != nil {
		e.Trace = fill() // outside the lock; the floor recheck below still guards
		if e.TraceID == "" {
			e.TraceID = e.Trace.TraceID
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if isErr {
		if len(r.errs) < r.cap {
			r.errs = append(r.errs, e)
			r.errNext = len(r.errs) % r.cap
		} else {
			r.errs[r.errNext] = e
			r.errNext = (r.errNext + 1) % r.cap
		}
	}
	// Slow side. Re-check under the lock: the floor may have risen since
	// the fast-path load.
	if len(r.slow) == r.cap && e.DurationNs <= r.slow[0].DurationNs {
		return
	}
	idx := sort.Search(len(r.slow), func(i int) bool {
		return r.slow[i].DurationNs >= e.DurationNs
	})
	if len(r.slow) < r.cap {
		r.slow = append(r.slow, Exemplar{})
		copy(r.slow[idx+1:], r.slow[idx:])
		r.slow[idx] = e
	} else {
		// Evict the minimum (index 0) and insert; idx >= 1 here because
		// e outlasts slow[0].
		copy(r.slow, r.slow[1:idx])
		r.slow[idx-1] = e
	}
	if len(r.slow) == r.cap {
		r.floor.Store(r.slow[0].DurationNs)
	}
}

// ExemplarSnapshot is the JSON form of the ring's current contents.
type ExemplarSnapshot struct {
	Capacity int        `json:"capacity"`
	Seen     int64      `json:"seen"`    // requests offered since start
	Slowest  []Exemplar `json:"slowest"` // descending by duration
	Errors   []Exemplar `json:"errors"`  // newest first
}

// Snapshot freezes the ring. Nil-safe (returns the zero snapshot).
func (r *ExemplarRing) Snapshot() ExemplarSnapshot {
	if r == nil {
		return ExemplarSnapshot{}
	}
	snap := ExemplarSnapshot{Capacity: r.cap, Seen: r.seen.Load()}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Slowest = make([]Exemplar, 0, len(r.slow))
	for i := len(r.slow) - 1; i >= 0; i-- {
		snap.Slowest = append(snap.Slowest, r.slow[i])
	}
	snap.Errors = make([]Exemplar, 0, len(r.errs))
	for i := 0; i < len(r.errs); i++ {
		// errNext-1 is the newest entry; walk backwards through the ring.
		j := (r.errNext - 1 - i + 2*len(r.errs)) % len(r.errs)
		snap.Errors = append(snap.Errors, r.errs[j])
	}
	return snap
}
