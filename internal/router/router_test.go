package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/serve"
)

// TestRoutingAndLocal400 proves the basics: every populated ASN
// resolves through its owner shard, a miss inside any range is a clean
// 404, and a malformed ASN is rejected locally with the serving tier's
// exact error envelope.
func TestRoutingAndLocal400(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 4)
	rt := newTestRouter(t, set, Options{})

	for _, a := range fixtureASNs {
		w := get(rt, fmt.Sprintf("/v1/asn/%d", a), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /v1/asn/%d = %d: %s", a, w.Code, w.Body)
		}
		var resp struct {
			ASN asn.ASN `json:"asn"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.ASN != a {
			t.Fatalf("GET /v1/asn/%d returned asn=%v err=%v", a, resp.ASN, err)
		}
		if w.Header().Get("ETag") == "" {
			t.Fatalf("GET /v1/asn/%d carried no ETag", a)
		}
	}

	w := get(rt, "/v1/asn/55", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("absent ASN = %d, want 404", w.Code)
	}

	w = get(rt, "/v1/asn/zzz", nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad ASN = %d, want 400", w.Code)
	}
	if want := `{"error":"bad ASN \"zzz\""}`; w.Body.String() != want {
		t.Fatalf("bad-ASN body %q, want %q", w.Body.String(), want)
	}
}

// TestDegradedThenRecovered kills one shard and proves per-range
// degradation: its ASN range fails fast with 503 + Retry-After once the
// breaker opens (no more upstream traffic burned), every other range
// keeps serving, aggregates degrade per policy — and after the shard
// comes back, a probe closes the breaker and full service resumes.
func TestDegradedThenRecovered(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 4)
	rt := newTestRouter(t, set, Options{BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond})

	// AS1000 lives in shard 2 of the golden 4-way plan; AS10 in shard 0.
	set.flakies[2].broken.Store(true)

	// Failures feed the breaker; at threshold it opens.
	for i := 0; i < 2; i++ {
		if w := get(rt, "/v1/asn/1000", nil); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("dead-range request %d = %d, want 503", i, w.Code)
		}
	}
	before := set.flakies[2].hits.Load()
	w := get(rt, "/v1/asn/1000", nil)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("open-breaker request = %d (Retry-After %q), want fast 503", w.Code, w.Header().Get("Retry-After"))
	}
	if got := set.flakies[2].hits.Load(); got != before {
		t.Fatalf("open breaker still sent %d upstream request(s)", got-before)
	}

	// Other ranges are untouched.
	if w := get(rt, "/v1/asn/10", nil); w.Code != http.StatusOK {
		t.Fatalf("healthy range = %d, want 200", w.Code)
	}

	// Aggregates: partial policy answers from the survivors and says so.
	w = get(rt, "/v1/taxonomy", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("partial aggregate = %d, want 200", w.Code)
	}
	if got := w.Header().Get(PartialHeader); got != "2" {
		t.Fatalf("%s = %q, want \"2\"", PartialHeader, got)
	}

	// readyz stays ready under partial policy (3 of 4 ranges serve).
	if w := get(rt, "/readyz", nil); w.Code != http.StatusOK {
		t.Fatalf("partial readyz = %d, want 200", w.Code)
	}

	// Recovery: the shard heals, the cooldown lapses, and a probe closes
	// the breaker without spending a client request.
	set.flakies[2].broken.Store(false)
	time.Sleep(60 * time.Millisecond)
	rt.Probe(context.Background())
	if w := get(rt, "/v1/asn/1000", nil); w.Code != http.StatusOK {
		t.Fatalf("recovered range = %d: %s", w.Code, w.Body)
	}
	w = get(rt, "/v1/taxonomy", nil)
	if w.Code != http.StatusOK || w.Header().Get(PartialHeader) != "" {
		t.Fatalf("recovered aggregate = %d (%s %q), want clean 200", w.Code, PartialHeader, w.Header().Get(PartialHeader))
	}
}

// TestStartProbesOnly pins what Start runs: the probe loop and nothing
// else. A healed replica's breaker closes with no client request spent on
// it, no replica is ever asked for /metrics — ScrapeInterval is accepted
// and ignored — the router's exposition carries no fleet_* family, and
// stop returns only once the loop has exited.
func TestStartProbesOnly(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 2)
	rt := newTestRouter(t, set, Options{ScrapeInterval: time.Millisecond, BreakerThreshold: 1, BreakerCooldown: 5 * time.Millisecond})

	set.flakies[1].broken.Store(true)
	rt.Probe(context.Background()) // one failed identity opens the breaker
	if got := rt.topo.Load().replicas[1].breakerState(); got != "open" {
		t.Fatalf("breaker after a failed probe = %s, want open", got)
	}
	set.flakies[1].broken.Store(false)

	stop := rt.Start(context.Background(), 5*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for rt.topo.Load().replicas[1].breakerState() != "closed" {
		if time.Now().After(deadline) {
			t.Fatal("the probe loop never closed the healed replica's breaker")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	settled := set.flakies[0].hits.Load()
	time.Sleep(20 * time.Millisecond)
	if got := set.flakies[0].hits.Load(); got != settled {
		t.Errorf("%d upstream request(s) after stop returned", got-settled)
	}

	for i, f := range set.flakies {
		if n := f.scrapes.Load(); n != 0 {
			t.Errorf("shard %d was asked for /metrics %d time(s)", i, n)
		}
	}
	if body := get(rt, "/metrics", nil).Body.String(); strings.Contains(body, "fleet_") {
		t.Errorf("router exposition still carries a fleet_* family:\n%s", body)
	}
}

// TestStrictPolicy proves the other degradation contract: any dead
// shard turns aggregates into 503s, and readiness drops with the first
// open breaker.
func TestStrictPolicy(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 2)
	rt := newTestRouter(t, set, Options{Policy: PolicyStrict, BreakerThreshold: 1})

	set.flakies[1].broken.Store(true)
	if w := get(rt, "/v1/asn/4200000000", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead range = %d, want 503", w.Code)
	}
	w := get(rt, "/v1/taxonomy", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("strict aggregate = %d, want 503", w.Code)
	}
	if w := get(rt, "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("strict readyz = %d, want 503", w.Code)
	}
	// Per-ASN reads for live ranges still work even under strict policy:
	// strictness is about aggregate completeness, not range routing.
	if w := get(rt, "/v1/asn/10", nil); w.Code != http.StatusOK {
		t.Fatalf("healthy range under strict = %d, want 200", w.Code)
	}
}

// TestCacheAnswersLocally pins the router cache's contract: a warm hit
// costs no upstream request (a client's matching validator gets an empty
// 304 the same way), a shard reloaded behind the router's back keeps
// being served from the cache until the next probe sees its generation
// move, and a hit whose range is dark takes the live degradation path —
// 503 for an ASN read, the gather (partial mark, or strict 503) for an
// aggregate.
func TestCacheAnswersLocally(t *testing.T) {
	ctx := context.Background()
	set := startShards(t, fixtureSnapshot(1), 2)
	rt := newTestRouter(t, set, Options{BreakerThreshold: 1, BreakerCooldown: time.Minute})
	hits := func() [2]int64 { return [2]int64{set.flakies[0].hits.Load(), set.flakies[1].hits.Load()} }

	asn1, tax1 := get(rt, "/v1/asn/10", nil), get(rt, "/v1/taxonomy", nil)
	if asn1.Code != http.StatusOK || tax1.Code != http.StatusOK {
		t.Fatalf("cold reads = %d, %d", asn1.Code, tax1.Code)
	}
	etag := asn1.Header().Get("ETag")
	before := hits()
	for _, cold := range []struct {
		path string
		w    *httptest.ResponseRecorder
	}{{"/v1/asn/10", asn1}, {"/v1/taxonomy", tax1}} {
		w := get(rt, cold.path, nil)
		if w.Code != http.StatusOK || w.Body.String() != cold.w.Body.String() || w.Header().Get("ETag") != cold.w.Header().Get("ETag") {
			t.Fatalf("warm %s drifted from its cold answer: %d", cold.path, w.Code)
		}
	}
	if w := get(rt, "/v1/asn/10", map[string]string{"If-None-Match": etag}); w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Fatalf("client conditional = %d with %d-byte body, want empty 304", w.Code, w.Body.Len())
	}
	if after := hits(); after != before {
		t.Fatalf("warm reads reached the shards: hits %v -> %v", before, after)
	}

	// Shard 0 reloads new content on its own: the router cannot know until
	// a probe reports the new generation.
	set.rewriteShards(t, fixtureSnapshot(2))
	resp, err := http.Post(set.urls[0]+"/v1/admin/reload", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("direct shard reload = %v, %v", resp, err)
	}
	resp.Body.Close()
	if w := get(rt, "/v1/asn/10", nil); w.Body.String() != asn1.Body.String() || w.Header().Get("ETag") != etag {
		t.Fatal("a reload behind the router's back showed before any probe")
	}
	resp, err = http.Get(set.urls[0] + "/v1/asn/10")
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt.Probe(ctx)
	w := get(rt, "/v1/asn/10", nil)
	if w.Body.String() != string(fresh) || w.Header().Get("ETag") != resp.Header.Get("ETag") || w.Header().Get("ETag") == etag {
		t.Fatalf("after the probe the router serves ETag %s, the shard %s (was %s)", w.Header().Get("ETag"), resp.Header.Get("ETag"), etag)
	}

	// A dark range's cached entries stay in the cache but are not answered.
	darken := func(rt *Router, set *shardSet) {
		get(rt, "/v1/taxonomy", nil) // warm the aggregate, winner range 0
		set.flakies[0].broken.Store(true)
		rt.Probe(ctx) // threshold 1: one failed identity opens the breaker
		if !rt.topo.Load().sets[0].dark() {
			t.Fatal("range 0 is not dark after a failed probe")
		}
	}
	darken(rt, set)
	if _, _, size, _ := rt.cache.Stats(); size != 2 {
		t.Fatalf("cache holds %d entries, want the 2 warm ones", size)
	}
	if w := get(rt, "/v1/asn/10", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cached ASN in a dark range = %d, want 503", w.Code)
	}
	if w := get(rt, "/v1/taxonomy", nil); w.Code != http.StatusOK || w.Header().Get(PartialHeader) != "0" {
		t.Fatalf("cached aggregate with a dark winner = %d (%s %q), want the partial gather", w.Code, PartialHeader, w.Header().Get(PartialHeader))
	}

	strictSet := startShards(t, fixtureSnapshot(1), 2)
	strict := newTestRouter(t, strictSet, Options{Policy: PolicyStrict, BreakerThreshold: 1, BreakerCooldown: time.Minute})
	darken(strict, strictSet)
	if w := get(strict, "/v1/taxonomy", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("strict cached aggregate with a dark winner = %d, want 503", w.Code)
	}
}

// fenceShard is a one-range unsharded replica stub for the cache-epoch
// fence. It reports a generation that POST /v1/admin/reload bumps, and
// answers every /v1/asn read with a body and ETag naming the generation
// current when the read arrived. While armed, the next read announces
// itself on entered and waits for release before answering — a fetch
// held in flight across an invalidation.
type fenceShard struct {
	gen     atomic.Int64
	reads   atomic.Int64
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *fenceShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/shard":
		json.NewEncoder(w).Encode(serve.ShardIdentity{Generation: s.gen.Load(), ASNCount: 1, Replica: "stub"})
	case r.Method == http.MethodPost && r.URL.Path == "/v1/admin/reload":
		fmt.Fprintf(w, `{"gen":%d}`, s.gen.Add(1))
	case strings.HasPrefix(r.URL.Path, "/v1/asn/"):
		gen := s.gen.Load()
		s.reads.Add(1)
		if s.armed.CompareAndSwap(true, false) {
			s.entered <- struct{}{}
			<-s.release
		}
		w.Header().Set("ETag", serve.EtagFor(gen, r.URL.Path))
		fmt.Fprintf(w, `{"gen":%d}`, gen)
	default:
		http.NotFound(w, r)
	}
}

// TestCacheNeverOutlivesInvalidation holds one shard response open
// across each of the three invalidating events. The held fetch lands in
// the cache after the flush; the epoch it read before starting is what
// keeps the router from answering that old-generation body afterwards.
func TestCacheNeverOutlivesInvalidation(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		invalidate func(t *testing.T, rt *Router, s *fenceShard)
	}{
		{"reload fan-out", func(t *testing.T, rt *Router, _ *fenceShard) {
			if w := post(rt, "/v1/admin/reload"); w.Code != http.StatusOK {
				t.Fatalf("reload = %d: %s", w.Code, w.Body)
			}
		}},
		{"topology rebuild", func(t *testing.T, rt *Router, s *fenceShard) {
			s.gen.Add(1)
			if _, err := rt.RebuildTopology(ctx); err != nil {
				t.Fatal(err)
			}
		}},
		{"probe sees a new generation", func(t *testing.T, rt *Router, s *fenceShard) {
			s.gen.Add(1)
			rt.Probe(ctx)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &fenceShard{entered: make(chan struct{}), release: make(chan struct{})}
			s.gen.Store(1)
			ts := httptest.NewServer(s)
			t.Cleanup(ts.Close)
			t.Cleanup(func() { close(s.release) }) // runs first: frees a read a failed step left held
			rt := newRouterOver(t, []string{ts.URL}, Options{})
			const path = "/v1/asn/10"

			s.armed.Store(true)
			held := make(chan *httptest.ResponseRecorder, 1)
			go func() { held <- get(rt, path, nil) }()
			<-s.entered
			tc.invalidate(t, rt, s)
			s.release <- struct{}{}
			if got, want := (<-held).Header().Get("ETag"), serve.EtagFor(1, path); got != want {
				t.Fatalf("held read = ETag %s, want the old generation's %s", got, want)
			}

			reads := s.reads.Load()
			w := get(rt, path, nil)
			if s.reads.Load() == reads {
				t.Fatal("the read after the invalidation was answered from the cache")
			}
			if got, want := w.Header().Get("ETag"), serve.EtagFor(2, path); got != want {
				t.Fatalf("read after the invalidation = ETag %s, want %s", got, want)
			}
		})
	}
}

// TestReloadFanout proves POST /v1/admin/reload swaps every shard's
// generation and rotates the router's cached bodies and validators.
func TestReloadFanout(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 2)
	rt := newTestRouter(t, set, Options{})

	w1 := get(rt, "/v1/asn/10", nil)
	etag1 := w1.Header().Get("ETag")

	set.rewriteShards(t, fixtureSnapshot(2))
	w := post(rt, "/v1/admin/reload")
	if w.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Shard int  `json:"shard"`
			OK    bool `json:"ok"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || !resp.Results[0].OK || !resp.Results[1].OK {
		t.Fatalf("reload results = %+v", resp.Results)
	}

	w2 := get(rt, "/v1/asn/10", map[string]string{"If-None-Match": etag1})
	if w2.Code != http.StatusOK {
		t.Fatalf("post-reload conditional = %d, want full 200 (validator must rotate)", w2.Code)
	}
	if w2.Header().Get("ETag") == etag1 {
		t.Fatal("ETag did not rotate across reload")
	}
	if w2.Body.String() == w1.Body.String() {
		t.Fatal("body did not change across reload (seed 2 rewrites org IDs)")
	}

	// A failed shard reload reports 502 with per-shard outcomes.
	set.flakies[1].broken.Store(true)
	w = post(rt, "/v1/admin/reload")
	if w.Code != http.StatusBadGateway {
		t.Fatalf("partial reload = %d, want 502", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"ok":true`) || !strings.Contains(w.Body.String(), `"ok":false`) {
		t.Fatalf("partial reload body lacks mixed outcomes: %s", w.Body)
	}
}

// TestHandshakeValidation pins the refusals: a shard set with a missing
// member and a mixed-plan set must not boot.
func TestHandshakeValidation(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 4)

	// Subset of a 4-way plan: two ranges have no replica.
	_, err := New(context.Background(), Options{
		Shards:           set.urls[:2],
		HandshakeTimeout: 2 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "has no replica") {
		t.Fatalf("subset handshake error = %v", err)
	}

	// Mixed sets: two shards of one 2-way cut plus two of another seed's.
	a := startShards(t, fixtureSnapshot(1), 2)
	b := startShards(t, fixtureSnapshot(2), 2)
	_, err = New(context.Background(), Options{
		Shards:           []string{a.urls[0], b.urls[1]},
		HandshakeTimeout: 2 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("mixed-set handshake error = %v", err)
	}

	// Duplicate member: index 0 twice.
	_, err = New(context.Background(), Options{
		Shards:           []string{a.urls[0], a.urls[0]},
		HandshakeTimeout: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("duplicate-shard handshake succeeded")
	}
}

// TestHealthAndTopology sanity-checks the merged health document and
// the /v1/shards topology.
func TestHealthAndTopology(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 4)
	rt := newTestRouter(t, set, Options{})

	w := get(rt, "/v1/health", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("health = %d", w.Code)
	}
	var health struct {
		Store    json.RawMessage `json:"store"`
		Pipeline json.RawMessage `json:"pipeline"`
		Router   struct {
			Policy    string                     `json:"policy"`
			Lifecycle map[string]json.RawMessage `json:"lifecycle"`
			Shards    []struct {
				Index    int  `json:"index"`
				Dark     bool `json:"dark"`
				Replicas []struct {
					Breaker string `json:"breaker"`
					Gen     int64  `json:"gen"`
				} `json:"replicas"`
			} `json:"shards"`
		} `json:"router"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if len(health.Store) == 0 || len(health.Pipeline) == 0 {
		t.Fatal("health lacks store/pipeline sections from the shards")
	}
	if health.Router.Policy != PolicyPartial || len(health.Router.Shards) != 4 {
		t.Fatalf("router section = %+v", health.Router)
	}
	// The lifecycle block uses serve's camelCase keys, not Go field names.
	var keys []string
	for k := range health.Router.Lifecycle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "inFlight,maxInFlight,panics,sheds,timeouts" {
		t.Errorf("router lifecycle keys = %s, want inFlight,maxInFlight,panics,sheds,timeouts", got)
	}
	for _, sh := range health.Router.Shards {
		if sh.Dark || len(sh.Replicas) != 1 {
			t.Fatalf("shard %d state = %+v", sh.Index, sh)
		}
		for _, rep := range sh.Replicas {
			if rep.Breaker != "closed" || rep.Gen != 1 {
				t.Fatalf("shard %d replica state = %+v", sh.Index, rep)
			}
		}
	}

	w = get(rt, "/v1/shards", nil)
	var topo struct {
		Count  int    `json:"count"`
		Sum    string `json:"sum"`
		Shards []struct {
			Lo asn.ASN `json:"lo"`
			Hi asn.ASN `json:"hi"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &topo); err != nil {
		t.Fatal(err)
	}
	if topo.Count != 4 || topo.Sum == "" || len(topo.Shards) != 4 {
		t.Fatalf("topology = %+v", topo)
	}
	if topo.Shards[0].Lo != 0 || topo.Shards[3].Hi != asn.ASN(maxASN) {
		t.Fatalf("topology does not span the ASN space: %+v", topo.Shards)
	}
}

// TestSingleUnshardedBackend proves the degenerate deployment: one
// plain `parallellives serve` process behind the router.
func TestSingleUnshardedBackend(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 1)
	// A 1-way cut is still sharded; also front a truly plain server.
	rt := newTestRouter(t, set, Options{})
	if w := get(rt, "/v1/asn/10", nil); w.Code != http.StatusOK {
		t.Fatalf("1-way shard routing = %d", w.Code)
	}
}
