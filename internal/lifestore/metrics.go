package lifestore

import (
	"time"

	"parallellives/internal/obs"
)

// Registry metric names the store publishes. Exported so servers and
// tests can read them back without string drift.
const (
	// MetricOpenSeconds times a snapshot open: header + eager-section
	// decode and checksum verification.
	MetricOpenSeconds = "parallellives_lifestore_open_seconds"
	// MetricLookupSeconds times one Lookup end to end (index search,
	// block read, checksum, decode).
	MetricLookupSeconds = "parallellives_lifestore_lookup_seconds"
	// MetricLookups counts lookups by outcome ("hit", "miss", "error").
	MetricLookups = "parallellives_lifestore_lookups_total"
	// MetricBlockBytes counts life-block bytes read off the snapshot.
	MetricBlockBytes = "parallellives_lifestore_block_read_bytes_total"
)

// storeMetrics holds the pre-resolved instrument handles for one store.
type storeMetrics struct {
	lookupSeconds *obs.Histogram
	hits          *obs.Counter
	misses        *obs.Counter
	errors        *obs.Counter
	blockBytes    *obs.Counter
}

// lookupBuckets spans the cold-read latency range: a block lookup is an
// index binary search plus one small ReadAt, so it sits in the µs–ms
// band rather than DefBuckets' ms–s band.
func lookupBuckets() []float64 { return obs.ExpBuckets(0.000001, 10, 8) }

// Instrument attaches a metrics registry to the store: every subsequent
// Lookup publishes its latency, outcome and bytes read. Safe to call
// while lookups are in flight (the handle swaps atomically); a nil
// registry detaches.
func (st *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		st.met.Store(nil)
		return
	}
	outcomes := reg.CounterVec(MetricLookups,
		"Snapshot lookups by outcome.", "outcome")
	st.met.Store(&storeMetrics{
		lookupSeconds: reg.Histogram(MetricLookupSeconds,
			"Latency of one snapshot lookup (index search, block read, checksum, decode).",
			lookupBuckets()),
		hits:   outcomes.With("hit"),
		misses: outcomes.With("miss"),
		errors: outcomes.With("error"),
		blockBytes: reg.Counter(MetricBlockBytes,
			"Life-block bytes read off the snapshot."),
	})
}

// OpenObserved is open (Open or OpenMapped) plus instrumentation: the
// open itself is timed into the registry and the returned store
// publishes its lookups there.
func OpenObserved(open func(path string) (*Store, error), path string, reg *obs.Registry) (*Store, error) {
	if reg == nil {
		return open(path)
	}
	start := time.Now()
	st, err := open(path)
	reg.Histogram(MetricOpenSeconds,
		"Time to open a snapshot: header, eager sections, checksums.",
		nil).Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	st.Instrument(reg)
	return st, nil
}
