package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/lifestore"
)

// tinyASNs are the ASNs tinySnapshot holds lives for.
var tinyASNs = []asn.ASN{64496, 64500, 65550}

// tinySnapshot hand-builds a small but fully featured snapshot — admin
// and op lives for a few ASNs — without running the pipeline, so the
// lifecycle and chaos tests stay fast enough for -short runs.
func tinySnapshot(seed int64) *lifestore.Snapshot {
	day := dates.MustParse
	snap := &lifestore.Snapshot{
		Meta: lifestore.Meta{
			FormatVersion: lifestore.FormatVersion,
			Start:         day("2004-01-01"),
			End:           day("2006-01-01"),
			Timeout:       365,
			Visibility:    2,
			Scale:         0.01,
			Seed:          seed,
		},
		Taxonomy: core.TaxonomyCounts{AdminComplete: 2, AdminPartial: 1, OpComplete: 2, OpPartial: 1},
	}
	for i, a := range tinyASNs {
		start := day("2004-03-01").AddDays(40 * i)
		snap.Lives = append(snap.Lives, lifestore.ASNLives{
			ASN: a,
			Admin: []lifestore.AdminLife{{
				RIR:      asn.RIPENCC,
				CC:       "NL",
				OpaqueID: fmt.Sprintf("org-%d-%d", seed, i),
				RegDate:  start,
				Span:     intervals.Interval{Start: start, End: start.AddDays(300)},
				Open:     i == 2,
				Pieces:   1,
				Category: core.CatComplete,
			}},
			Op: []lifestore.OpLife{{
				Span:     intervals.Interval{Start: start.AddDays(10), End: start.AddDays(250)},
				Category: core.CatPartial,
			}},
		})
	}
	snap.Meta.ASNCount = len(snap.Lives)
	snap.Meta.AdminLives = len(snap.Lives)
	snap.Meta.OpLives = len(snap.Lives)
	return snap
}

// tinyImage encodes tinySnapshot(seed).
func tinyImage(tb testing.TB, seed int64) []byte {
	tb.Helper()
	img, err := lifestore.Encode(tinySnapshot(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// tinyStore opens tinySnapshot(seed) as a cold Store.
func tinyStore(tb testing.TB, seed int64) *lifestore.Store {
	tb.Helper()
	st, err := lifestore.OpenBytes(tinyImage(tb, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// newRequest pairs a recorder with a request, for tests that need to
// inspect response headers.
func newRequest(method, path string) (*http.Request, *httptest.ResponseRecorder) {
	return httptest.NewRequest(method, path, nil), httptest.NewRecorder()
}

// blockingSource parks every lookup until release is closed (or the
// request context expires), letting tests hold requests in flight.
type blockingSource struct {
	Source
	entered chan struct{} // receives one signal per lookup that parked
	release chan struct{}
}

func newBlockingSource(src Source) *blockingSource {
	return &blockingSource{
		Source:  src,
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *blockingSource) LookupContext(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
		return b.Source.LookupContext(ctx, a)
	case <-ctx.Done():
		return lifestore.ASNLives{}, false, ctx.Err()
	}
}

// failingSource fails every lookup with a non-context error while
// broken is set — the shape that must feed the circuit breaker.
type failingSource struct {
	Source
	broken atomic.Bool
}

func (f *failingSource) LookupContext(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, error) {
	if f.broken.Load() {
		return lifestore.ASNLives{}, false, fmt.Errorf("injected backend failure for AS%s", a)
	}
	return f.Source.LookupContext(ctx, a)
}

// slowSource delays lookups by delay (honouring cancellation), for
// graceful-shutdown and deadline tests.
type slowSource struct {
	Source
	delay time.Duration
}

func (s *slowSource) LookupContext(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return lifestore.ASNLives{}, false, ctx.Err()
	}
	return s.Source.LookupContext(ctx, a)
}

// countingSource counts lookups, for proving which requests reach the
// store.
type countingSource struct {
	Source
	lookups atomic.Int64
}

func (c *countingSource) LookupContext(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, error) {
	c.lookups.Add(1)
	return c.Source.LookupContext(ctx, a)
}

// panicSource blows up on taxonomy reads, for the recovery middleware.
type panicSource struct{ Source }

func (panicSource) Taxonomy() core.TaxonomyCounts { panic("injected handler panic") }

// fixedOpener opens src every time.
func fixedOpener(src Source, closer io.Closer, source string) OpenFunc {
	return func(context.Context) (Source, io.Closer, string, error) { return src, closer, source, nil }
}

// openInTurn opens through each of opens in turn — the constructor
// through the first, then one per reload — and through the last from
// then on. Reloads are serialized, so the counter needs no lock.
func openInTurn(opens ...OpenFunc) OpenFunc {
	next := 0
	return func(ctx context.Context) (Source, io.Closer, string, error) {
		open := opens[next]
		if next < len(opens)-1 {
			next++
		}
		return open(ctx)
	}
}

// recordCloser flags when its Close ran, and counts the calls, for
// generation-retirement tests.
type recordCloser struct {
	closed atomic.Bool
	calls  atomic.Int64
}

func (c *recordCloser) Close() error { c.calls.Add(1); c.closed.Store(true); return nil }

var _ io.Closer = (*recordCloser)(nil)
