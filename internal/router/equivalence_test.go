package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/pipeline"
	"parallellives/internal/serve"
)

// The sharding contract: a router over N shards is byte-for-byte
// indistinguishable from a single `parallellives serve` process over the unsharded
// snapshot. This file proves it property-style — pipeline-built
// datasets (clean and chaos-seeded), N ∈ {1, 2, 4}, and a probe set
// that walks every populated ASN, every shard boundary and its
// neighbours, absent ASNs, malformed inputs, and every aggregate
// endpoint with query variants. Status, Content-Type, ETag, and body
// must match exactly; /v1/health is compared semantically (the router
// adds its own section by design).

func equivOptions(seed int64, chaos bool) pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.World.Scale = 0.02
	opts.World.Seed = seed
	opts.World.Start = dates.MustParse("2004-01-01")
	opts.World.End = dates.MustParse("2005-12-31")
	if chaos {
		opts.FaultPolicy = faults.Degrade
		plan := faults.DefaultStorm(seed)
		opts.Inject = &plan
		opts.Wire = true
	}
	return opts
}

var equivCache = map[string]*lifestore.Snapshot{}

func equivSnapshot(t testing.TB, seed int64, chaos bool) *lifestore.Snapshot {
	t.Helper()
	key := fmt.Sprintf("%d/%v", seed, chaos)
	if snap, ok := equivCache[key]; ok {
		return snap
	}
	ds, err := pipeline.Run(equivOptions(seed, chaos))
	if err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	equivCache[key] = snap
	return snap
}

// startBaseline serves the unsharded snapshot exactly as `parallellives serve`
// does: saved to disk, opened through FileOpener, behind serve.New.
func startBaseline(t *testing.T, snap *lifestore.Snapshot) *serve.Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lives.snap")
	if err := lifestore.SaveSnapshot(snap, path); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	open := serve.FileOpener(lifestore.Open, path, o.Registry)
	src, closer, source, err := open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sw := serve.NewSwappable(src, closer, source)
	t.Cleanup(func() { closer.Close() })
	return serve.New(sw, serve.Options{Obs: o, Reloader: serve.NewReloader(sw, open, o.Registry)})
}

// probePaths builds the request set from the snapshot and the shard
// plan: the full populated population (capped), the exact cut points
// and their neighbours on both sides, known-absent ASNs, malformed
// inputs, and the aggregate endpoints with query variants.
func probePaths(snap *lifestore.Snapshot, plan lifestore.ShardPlan) []string {
	probes := map[asn.ASN]bool{}
	add := func(a asn.ASN) { probes[a] = true }
	// Every populated ASN, capped so the matrix stays fast.
	for i, l := range snap.Lives {
		if i%7 == 0 || i < 32 || i >= len(snap.Lives)-32 {
			add(l.ASN)
		}
	}
	// Cut points and their immediate neighbours: the exact places where
	// off-by-one routing bugs live.
	for _, r := range plan.Ranges {
		add(r.Lo)
		add(r.Hi)
		if r.Lo > 0 {
			add(r.Lo - 1)
		}
		if r.Hi < asn.ASN(maxASN) {
			add(r.Hi + 1)
		}
	}
	// Guaranteed absences inside and outside the populated span.
	for _, a := range []asn.ASN{0, 1, 99999999, 4294967295} {
		add(a)
	}

	var paths []string
	for a := range probes {
		paths = append(paths, fmt.Sprintf("/v1/asn/%d", a))
	}
	paths = append(paths,
		"/v1/asn/AS174", // prefix forms parse identically
		"/v1/asn/as174",
		"/v1/asn/zzz", // malformed → local 400 replicating serve's body
		"/v1/asn/-1",
		"/v1/asn/4294967296", // overflow
		"/v1/asn/",
	)
	for _, r := range []string{"afrinic", "apnic", "arin", "lacnic", "ripencc", "all", "bogus"} {
		paths = append(paths, "/v1/rir/"+r+"/series")
	}
	paths = append(paths,
		"/v1/rir/all/series?stride=1",
		"/v1/rir/all/series?stride=30",
		"/v1/rir/ripencc/series?stride=0",   // bad stride → 400
		"/v1/rir/ripencc/series?stride=abc", // bad stride → 400
		"/v1/taxonomy",
		"/v1/stages",
		"/v1/nosuch", // mux defaults must agree too
	)
	return paths
}

func fetchRec(h http.Handler, path string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func compareResponses(t *testing.T, path string, want, got *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Errorf("%s: status %d, single-process %d", path, got.Code, want.Code)
		return
	}
	for _, h := range []string{"Content-Type", "ETag", "Retry-After"} {
		if got.Header().Get(h) != want.Header().Get(h) {
			t.Errorf("%s: header %s = %q, single-process %q", path, h, got.Header().Get(h), want.Header().Get(h))
		}
	}
	if got.Body.String() != want.Body.String() {
		g, w := got.Body.String(), want.Body.String()
		if len(g) > 200 {
			g = g[:200] + "..."
		}
		if len(w) > 200 {
			w = w[:200] + "..."
		}
		t.Errorf("%s: body diverged\n  router: %s\n  single: %s", path, g, w)
	}
}

// compareHealth checks the store and pipeline sections semantically:
// the router's health document carries them verbatim from a shard, but
// adds its own "router" section in place of the single process's
// serving internals.
func compareHealth(t *testing.T, want, got *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != http.StatusOK || want.Code != http.StatusOK {
		t.Fatalf("/v1/health: router %d, single-process %d", got.Code, want.Code)
	}
	var single, routed map[string]json.RawMessage
	if err := json.Unmarshal(want.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Body.Bytes(), &routed); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"store", "pipeline"} {
		var a, b any
		if err := json.Unmarshal(single[section], &a); err != nil {
			t.Fatalf("/v1/health %s (single): %v", section, err)
		}
		if err := json.Unmarshal(routed[section], &b); err != nil {
			t.Fatalf("/v1/health %s (router): %v", section, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("/v1/health: section %q diverged\n  router: %s\n  single: %s", section, routed[section], single[section])
		}
	}
	if _, ok := routed["router"]; !ok {
		t.Error("/v1/health: router document lacks its own section")
	}
}

// TestReplicatedEquivalence extends the contract to replica sets: a
// router over R=2 replicas per range is byte-for-byte indistinguishable
// from the single process — and stays so after one replica of every
// range is killed mid-test, because failover absorbs the loss before
// any client sees it. The failover/hedge marker headers are additive
// and deliberately outside the compared set.
func TestReplicatedEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		chaos bool
	}{
		{"clean", 1, false},
		{"chaos", 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := equivSnapshot(t, tc.seed, tc.chaos)
			baseline := startBaseline(t, snap)

			for _, ranges := range []int{1, 2} {
				t.Run(fmt.Sprintf("ranges=%d", ranges), func(t *testing.T) {
					fleet := startReplicated(t, snap, ranges, 2)
					rt := newRouterOver(t, fleet.urls, Options{CacheSize: 8})

					paths := probePaths(snap, fleet.plan)
					for _, path := range paths {
						want := fetchRec(baseline, path)
						compareResponses(t, path, want, fetchRec(rt, path))
						compareResponses(t, path+" (warm)", want, fetchRec(rt, path))
					}
					compareHealth(t, fetchRec(baseline, "/v1/health"), fetchRec(rt, "/v1/health"))

					// Kill one replica of every range mid-test: the
					// answers must not change by a byte.
					for i := 0; i < ranges; i++ {
						fleet.flakyAt(t, rt, i, 0).broken.Store(true)
					}
					for _, path := range paths {
						want := fetchRec(baseline, path)
						compareResponses(t, path+" (degraded)", want, fetchRec(rt, path))
					}
					compareHealth(t, fetchRec(baseline, "/v1/health"), fetchRec(rt, "/v1/health"))
				})
			}
		})
	}
}

func TestShardedEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		chaos bool
	}{
		{"clean", 1, false},
		{"chaos", 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := equivSnapshot(t, tc.seed, tc.chaos)
			baseline := startBaseline(t, snap)

			for _, n := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					set := startShards(t, snap, n)
					rt := newTestRouter(t, set, Options{CacheSize: 8})

					paths := probePaths(snap, set.plan)
					for _, path := range paths {
						want := fetchRec(baseline, path)
						got := fetchRec(rt, path)
						compareResponses(t, path, want, got)
						// Warm pass: answers from the router's cache
						// must stay byte-identical too.
						got2 := fetchRec(rt, path)
						compareResponses(t, path+" (warm)", want, got2)
					}
					compareHealth(t, fetchRec(baseline, "/v1/health"), fetchRec(rt, "/v1/health"))
				})
			}
		})
	}
}
