package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/serve"
)

// fixtureASNs is the ASN population of the router fixture — spread so a
// 4-way plan puts distinct ASNs in every shard, with gaps for misses.
var fixtureASNs = []asn.ASN{10, 20, 30, 100, 200, 300, 1000, 2000, 64496, 4200000000}

// fixtureSnapshot hand-builds a deterministic snapshot over
// fixtureASNs, including a small alive series so the aggregate
// endpoints have real bodies. seed varies the content (org IDs) without
// moving the ASN population, so reloading seed 2 over seed 1 keeps the
// shard plan's ranges stable — the same invariant production reloads
// must hold.
func fixtureSnapshot(seed int64) *lifestore.Snapshot {
	day := dates.MustParse
	start, end := day("2004-01-01"), day("2004-03-01")
	series := &core.AliveSeries{Start: start, End: end}
	n := end.Sub(start) + 1
	series.AdminOverall = make([]int, n)
	series.OpOverall = make([]int, n)
	for r := range series.AdminPerRIR {
		series.AdminPerRIR[r] = make([]int, n)
		series.OpPerRIR[r] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		series.AdminOverall[i] = len(fixtureASNs)
		series.OpOverall[i] = len(fixtureASNs) - 1
		series.AdminPerRIR[asn.RIPENCC][i] = len(fixtureASNs)
	}

	snap := &lifestore.Snapshot{
		Meta: lifestore.Meta{
			FormatVersion: lifestore.FormatVersion,
			Start:         start,
			End:           end,
			Timeout:       365,
			Visibility:    2,
			Scale:         0.01,
			Seed:          seed,
		},
		Taxonomy: core.TaxonomyCounts{AdminComplete: 6, AdminPartial: 4, OpComplete: 5, OpPartial: 5},
		Series:   series,
	}
	for i, a := range fixtureASNs {
		s := day("2004-01-05").AddDays(i)
		snap.Lives = append(snap.Lives, lifestore.ASNLives{
			ASN: a,
			Admin: []lifestore.AdminLife{{
				RIR:      asn.RIPENCC,
				CC:       "NL",
				OpaqueID: fmt.Sprintf("org-%d-%d", seed, i),
				RegDate:  s,
				Span:     intervals.Interval{Start: s, End: s.AddDays(30)},
				Pieces:   1,
				Category: core.CatComplete,
			}},
			Op: []lifestore.OpLife{{
				Span:     intervals.Interval{Start: s.AddDays(2), End: s.AddDays(20)},
				Category: core.CatPartial,
			}},
		})
	}
	snap.Meta.ASNCount = len(snap.Lives)
	snap.Meta.AdminLives = len(snap.Lives)
	snap.Meta.OpLives = len(snap.Lives)
	return snap
}

// flaky wraps a shard server so tests can kill and revive it without
// juggling listeners: while broken, every request answers 500 (which
// the router's breaker treats exactly like a dead process). A non-zero
// delay stalls every response first — the slow-replica half of the
// hedged-read tests. While flooding, every request answers 200 with a
// body that never ends.
type flaky struct {
	h      http.Handler
	broken atomic.Bool
	flood  atomic.Bool
	delay  atomic.Int64 // nanoseconds added before answering
	hits   atomic.Int64
	// scrapes counts /metrics requests: the router must never send one.
	scrapes atomic.Int64
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.hits.Add(1)
	if r.URL.Path == "/metrics" {
		f.scrapes.Add(1)
	}
	if d := f.delay.Load(); d > 0 {
		select {
		case <-time.After(time.Duration(d)):
		case <-r.Context().Done():
			return
		}
	}
	if f.broken.Load() {
		http.Error(w, "injected shard failure", http.StatusInternalServerError)
		return
	}
	if f.flood.Load() {
		chunk := make([]byte, 64<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		return
	}
	f.h.ServeHTTP(w, r)
}

// shardSet is a running set of shard servers over one sharded fixture.
type shardSet struct {
	urls    []string
	flakies []*flaky
	servers []*httptest.Server
	paths   []string
	plan    lifestore.ShardPlan
}

// startShards cuts the fixture into n shard files and serves each with
// a full reloading serve.Server (so fan-out reload works) behind
// a flaky wrapper.
func startShards(t *testing.T, snap *lifestore.Snapshot, n int) *shardSet {
	t.Helper()
	dir := t.TempDir()
	plan, paths, err := lifestore.SaveSharded(snap, n, filepath.Join(dir, "lives.%d.snap"))
	if err != nil {
		t.Fatal(err)
	}
	set := &shardSet{paths: paths, plan: plan}
	for _, path := range paths {
		o := obs.New()
		s, err := serve.NewReloadable(context.Background(), serve.FileOpener(lifestore.Open, path, o.Registry), serve.Options{Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		f := &flaky{h: s}
		ts := httptest.NewServer(f)
		t.Cleanup(ts.Close)
		set.urls = append(set.urls, ts.URL)
		set.flakies = append(set.flakies, f)
		set.servers = append(set.servers, ts)
	}
	return set
}

// rewriteShards overwrites the shard files with a new seed's content,
// for reload tests.
func (s *shardSet) rewriteShards(t *testing.T, snap *lifestore.Snapshot) {
	t.Helper()
	dir := filepath.Dir(s.paths[0])
	_, paths, err := lifestore.SaveSharded(snap, len(s.paths), filepath.Join(dir, "lives.%d.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		if paths[i] != s.paths[i] {
			t.Fatalf("rewrite moved shard file %s -> %s", s.paths[i], paths[i])
		}
	}
}

// replicaFleet is a running replicated fleet over one sharded fixture:
// `ranges` shard files, each served by `replicas` independent
// serve.Server processes (distinct replica IDs, shared shard file).
type replicaFleet struct {
	urls  []string
	byURL map[string]*flaky
	paths []string
	plan  lifestore.ShardPlan
}

// startReplicated cuts the fixture into `ranges` shard files and serves
// each with `replicas` full serve.Servers behind flaky wrappers.
func startReplicated(t *testing.T, snap *lifestore.Snapshot, ranges, replicas int) *replicaFleet {
	t.Helper()
	dir := t.TempDir()
	plan, paths, err := lifestore.SaveSharded(snap, ranges, filepath.Join(dir, "lives.%d.snap"))
	if err != nil {
		t.Fatal(err)
	}
	fleet := &replicaFleet{paths: paths, plan: plan, byURL: map[string]*flaky{}}
	for i, path := range paths {
		for j := 0; j < replicas; j++ {
			o := obs.New()
			s, err := serve.NewReloadable(context.Background(), serve.FileOpener(lifestore.Open, path, o.Registry),
				serve.Options{Obs: o, Replica: fmt.Sprintf("r%d-%d", i, j)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			f := &flaky{h: s}
			ts := httptest.NewServer(f)
			t.Cleanup(ts.Close)
			fleet.urls = append(fleet.urls, ts.URL)
			fleet.byURL[ts.URL] = f
		}
	}
	return fleet
}

// flakyAt resolves a (range, ordinal) slot of the router's live
// topology back to the flaky wrapper serving it — ordinals are assigned
// by URL sort, so tests must look them up rather than assume start
// order.
func (fl *replicaFleet) flakyAt(t *testing.T, rt *Router, rangeIdx, ordinal int) *flaky {
	t.Helper()
	sc := rt.topo.Load().sets[rangeIdx].replicas[ordinal]
	f, ok := fl.byURL[sc.baseURL]
	if !ok {
		t.Fatalf("no fixture server behind %s", sc.baseURL)
	}
	return f
}

// newRouterOver builds a router over the given URLs with fast breakers.
func newRouterOver(t *testing.T, urls []string, opts Options) *Router {
	t.Helper()
	opts.Shards = urls
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 2
	}
	if opts.BreakerCooldown == 0 {
		opts.BreakerCooldown = 50 * time.Millisecond
	}
	if opts.HandshakeTimeout == 0 {
		opts.HandshakeTimeout = 5 * time.Second
	}
	rt, err := New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// newTestRouter builds a router over the set with fast breakers.
func newTestRouter(t *testing.T, set *shardSet, opts Options) *Router {
	t.Helper()
	return newRouterOver(t, set.urls, opts)
}

// get performs one request against the router, returning the recorder.
func get(rt *Router, path string, hdr map[string]string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, r)
	return w
}

// post performs one POST against the router.
func post(rt *Router, path string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, path, nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, r)
	return w
}
