package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
)

// GenInfo describes one snapshot generation a Swappable has served.
type GenInfo struct {
	// Gen is the monotone generation number, starting at 1.
	Gen int64 `json:"gen"`
	// Source names where the generation came from (a snapshot path).
	Source string `json:"source"`
	// ASNCount is the generation's headline size.
	ASNCount int `json:"asnCount"`
}

// generation is one refcounted source: inflight counts the requests
// currently borrowing it, and its closer runs only after the generation
// has been retired and the count has drained to zero.
type generation struct {
	src      Source
	closer   io.Closer
	info     GenInfo
	inflight atomic.Int64
}

// Swappable is a Source whose backing source can be replaced atomically
// while requests are in flight. Readers acquire the current generation
// per call; Swap installs a new generation instantly and retires the
// old one in the background, closing it only once its last borrowed
// call returns — a hot reload never yanks a reader out from under a
// request, and never blocks serving while the new snapshot loads.
type Swappable struct {
	cur  atomic.Pointer[generation]
	gens atomic.Int64
	prev atomic.Pointer[GenInfo] // most recently retired generation
}

// NewSwappable wraps the initial source. closer may be nil (in-memory
// sources); source names the origin for /v1/health.
func NewSwappable(src Source, closer io.Closer, source string) *Swappable {
	sw := &Swappable{}
	sw.install(src, closer, source)
	return sw
}

// install builds the next generation and makes it current, returning
// the generation it replaced (nil on first install).
func (sw *Swappable) install(src Source, closer io.Closer, source string) *generation {
	g := &generation{src: src, closer: closer,
		info: GenInfo{Gen: sw.gens.Add(1), Source: source, ASNCount: src.ASNCount()}}
	return sw.cur.Swap(g)
}

// Swap atomically replaces the serving source and retires the old
// generation: its info becomes the "previous" record and its closer
// fires once in-flight borrowers drain. Returns the new generation's
// info.
func (sw *Swappable) Swap(src Source, closer io.Closer, source string) GenInfo {
	old := sw.install(src, closer, source)
	cur := sw.cur.Load().info
	if old != nil {
		info := old.info
		sw.prev.Store(&info)
		go func() {
			for old.inflight.Load() > 0 {
				time.Sleep(time.Millisecond)
			}
			if old.closer != nil {
				old.closer.Close()
			}
		}()
	}
	return cur
}

// Generations returns the current generation and, when a swap has
// happened, the previously served one.
func (sw *Swappable) Generations() (cur GenInfo, prev *GenInfo) {
	return sw.cur.Load().info, sw.prev.Load()
}

// acquire borrows the current generation. The release must run when the
// borrowed call is done. The retry loop closes the swap race: if a Swap
// lands between loading the pointer and incrementing the count, the
// count may have been observed at zero and the closer may already have
// fired, so the borrow is abandoned and retried on the new current.
func (sw *Swappable) acquire() (*generation, func()) {
	for {
		g := sw.cur.Load()
		g.inflight.Add(1)
		if sw.cur.Load() == g {
			return g, func() { g.inflight.Add(-1) }
		}
		g.inflight.Add(-1)
	}
}

// Source implementation: every method borrows the current generation
// for exactly the duration of the delegated call. Returned values never
// alias the underlying reader (blocks decode into fresh memory), so
// they stay valid after release.

func (sw *Swappable) Meta() lifestore.Meta {
	g, release := sw.acquire()
	defer release()
	return g.src.Meta()
}

func (sw *Swappable) Health() faults.Health {
	g, release := sw.acquire()
	defer release()
	return g.src.Health()
}

func (sw *Swappable) Taxonomy() core.TaxonomyCounts {
	g, release := sw.acquire()
	defer release()
	return g.src.Taxonomy()
}

func (sw *Swappable) Series() *core.AliveSeries {
	g, release := sw.acquire()
	defer release()
	return g.src.Series()
}

func (sw *Swappable) LookupContext(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, error) {
	g, release := sw.acquire()
	defer release()
	return g.src.LookupContext(ctx, a)
}

func (sw *Swappable) ASNCount() int {
	g, release := sw.acquire()
	defer release()
	return g.src.ASNCount()
}

// Shard forwards the serving generation's shard identity when the
// underlying source reports one, implementing Sharder on behalf of
// whatever is currently installed.
func (sw *Swappable) Shard() *lifestore.ShardInfo {
	g, release := sw.acquire()
	defer release()
	if sh, ok := g.src.(Sharder); ok {
		return sh.Shard()
	}
	return nil
}

// OpenFunc opens and fully verifies a candidate source for a reload.
// It must not return a partially verified source: whatever it hands
// back is installed as the serving generation.
type OpenFunc func(ctx context.Context) (src Source, closer io.Closer, source string, err error)

// FileOpener is the standard OpenFunc for snapshot files: open the
// path with open (lifestore.Open, or lifestore.OpenMapped to read the
// page cache instead of issuing pread syscalls), verify every block
// (section checksum plus each indexed block's CRC and decode), and
// instrument lookups into reg (nil skips instrumentation). The
// open-and-verify happens entirely before the swap, so the old
// generation serves untouched through a slow or failed reload.
func FileOpener(open func(path string) (*lifestore.Store, error), path string, reg *obs.Registry) OpenFunc {
	return func(ctx context.Context) (Source, io.Closer, string, error) {
		st, err := lifestore.OpenObserved(open, path, reg)
		if err != nil {
			return nil, nil, "", err
		}
		if err := ctx.Err(); err != nil {
			st.Close()
			return nil, nil, "", err
		}
		if err := st.VerifyBlocks(); err != nil {
			st.Close()
			return nil, nil, "", fmt.Errorf("verifying %s: %w", path, err)
		}
		return st, st, path, nil
	}
}

// Reloader performs verified hot reloads into a Swappable. Reloads are
// serialized: a second reload arriving while one is in flight waits its
// turn rather than racing the swap.
type Reloader struct {
	sw   *Swappable
	open OpenFunc

	mu sync.Mutex

	reloads  *obs.CounterVec
	genGauge *obs.Gauge
}

// NewReloader wires a reloader to its swappable and opener, publishing
// reload outcomes and the serving generation to reg.
func NewReloader(sw *Swappable, open OpenFunc, reg *obs.Registry) *Reloader {
	r := &Reloader{
		sw: sw, open: open,
		reloads: reg.CounterVec(MetricReloads,
			"Hot snapshot reloads by outcome.", "outcome"),
		genGauge: reg.Gauge(MetricGeneration,
			"Snapshot generation currently serving (increments per successful reload)."),
	}
	cur, _ := sw.Generations()
	r.genGauge.Set(float64(cur.Gen))
	return r
}

// Reload opens and verifies a fresh source, swaps it in, and returns
// the new generation. On any failure the old generation keeps serving
// and the error is returned — a reload can never make a healthy server
// worse.
func (r *Reloader) Reload(ctx context.Context) (GenInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	src, closer, source, err := r.open(ctx)
	if err != nil {
		r.reloads.With("error").Inc()
		return GenInfo{}, fmt.Errorf("serve: reload rejected: %w", err)
	}
	info := r.sw.Swap(src, closer, source)
	r.genGauge.Set(float64(info.Gen))
	r.reloads.With("ok").Inc()
	return info, nil
}
