package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
)

// TestEtagConditionalRequests proves the cacheable endpoints carry a
// validator and honour If-None-Match: a revalidation costs a 304 with
// no body, a different resource gets a different validator, and the
// non-cacheable endpoints carry none.
func TestEtagConditionalRequests(t *testing.T) {
	s := New(lifestore.NewInMemory(tinySnapshot(1)), Options{})

	r, w := newRequest("GET", "/v1/asn/64496")
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/asn/64496 = %d", w.Code)
	}
	etag := w.Header().Get("ETag")
	if etag == "" {
		t.Fatal("cacheable endpoint served no ETag")
	}

	// Revalidation: 304, empty body, validator echoed.
	r, w = newRequest("GET", "/v1/asn/64496")
	r.Header.Set("If-None-Match", etag)
	s.ServeHTTP(w, r)
	if w.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match hit = %d, want 304", w.Code)
	}
	if w.Body.Len() != 0 {
		t.Fatalf("304 carried a %d-byte body", w.Body.Len())
	}
	if w.Header().Get("ETag") != etag {
		t.Fatalf("304 ETag %q != %q", w.Header().Get("ETag"), etag)
	}

	// A stale or foreign validator is a full 200.
	r, w = newRequest("GET", "/v1/asn/64496")
	r.Header.Set("If-None-Match", `"g999-deadbeef"`)
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK || w.Body.Len() == 0 {
		t.Fatalf("stale validator = %d with %d-byte body, want full 200", w.Code, w.Body.Len())
	}

	// Distinct resources (and distinct queries) get distinct validators.
	r, w = newRequest("GET", "/v1/asn/64500")
	s.ServeHTTP(w, r)
	if other := w.Header().Get("ETag"); other == etag {
		t.Fatalf("different paths share ETag %q", etag)
	}
	r, w = newRequest("GET", "/v1/taxonomy?x=1")
	s.ServeHTTP(w, r)
	first := w.Header().Get("ETag")
	r, w = newRequest("GET", "/v1/taxonomy?x=2")
	s.ServeHTTP(w, r)
	if first == "" || w.Header().Get("ETag") == first {
		t.Fatalf("different queries share ETag %q", first)
	}

	// Non-cacheable endpoints are computed live and carry no validator.
	r, w = newRequest("GET", "/v1/health")
	s.ServeHTTP(w, r)
	if w.Header().Get("ETag") != "" {
		t.Fatalf("/v1/health carries ETag %q", w.Header().Get("ETag"))
	}

	// Errors carry no validator either.
	r, w = newRequest("GET", "/v1/asn/not-a-number")
	s.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest || w.Header().Get("ETag") != "" {
		t.Fatalf("bad request = %d, ETag %q; want 400 with none", w.Code, w.Header().Get("ETag"))
	}
}

// TestRevalidationRendersNothing pins that a matching If-None-Match is
// answered before the handler runs: with no response cache every 200
// reads the store, and a 304 must not. A swap rotates the validator, so
// the same If-None-Match then reads the new generation.
func TestRevalidationRendersNothing(t *testing.T) {
	gen1 := &countingSource{Source: lifestore.NewInMemory(tinySnapshot(1))}
	sw := NewSwappable(gen1, nil, "gen1")
	s := New(sw, Options{})
	fetch := func(inm string) *httptest.ResponseRecorder {
		r, w := newRequest("GET", "/v1/asn/64496")
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		s.ServeHTTP(w, r)
		return w
	}

	first := fetch("")
	second := fetch("")
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("plain GETs = %d, %d; want 200, 200", first.Code, second.Code)
	}
	if n := gen1.lookups.Load(); n != 2 {
		t.Fatalf("two plain GETs performed %d lookups, want 2", n)
	}
	etag := first.Header().Get("ETag")
	if etag == "" || second.Header().Get("ETag") != etag {
		t.Fatalf("plain GETs carry ETags %q and %q, want one non-empty validator",
			etag, second.Header().Get("ETag"))
	}

	if w := fetch(etag); w.Code != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", w.Code)
	}
	if n := gen1.lookups.Load(); n != 2 {
		t.Fatalf("revalidation performed %d lookups, want none", n-2)
	}

	gen2 := &countingSource{Source: lifestore.NewInMemory(tinySnapshot(2))}
	sw.Swap(gen2, nil, "gen2")
	w := fetch(etag)
	if w.Code != http.StatusOK {
		t.Fatalf("revalidation after swap = %d, want 200", w.Code)
	}
	if got := w.Header().Get("ETag"); got == etag || got != EtagFor(2, "/v1/asn/64496") {
		t.Fatalf("post-swap ETag %q, want generation 2's (was %q)", got, etag)
	}
	if bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("post-swap body identical to generation 1's")
	}
	if n1, n2 := gen1.lookups.Load(), gen2.lookups.Load(); n1 != 2 || n2 != 1 {
		t.Fatalf("post-swap lookups: generation 1 %d (want 2), generation 2 %d (want 1)", n1, n2)
	}
}

// TestEtagReloadInvalidates proves a hot reload rotates the validator:
// the If-None-Match that revalidated against generation 1 misses after
// the swap and the client gets the new generation's body and ETag.
func TestEtagReloadInvalidates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lives.snap")
	if err := os.WriteFile(path, tinyImage(t, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	open := FileOpener(lifestore.Open, path, reg.Registry)
	src, closer, source, err := open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwappable(src, closer, source)
	rl := NewReloader(sw, open, reg.Registry)
	s := New(sw, Options{Obs: reg, Reloader: rl})

	r, w := newRequest("GET", "/v1/asn/64496")
	s.ServeHTTP(w, r)
	etag1 := w.Header().Get("ETag")
	body1 := append([]byte(nil), w.Body.Bytes()...)
	if etag1 == "" {
		t.Fatal("no ETag before reload")
	}

	// Swap in a snapshot with different content (seed 2 changes org IDs).
	if err := os.WriteFile(path, tinyImage(t, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	r, w = newRequest("POST", "/v1/admin/reload")
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", w.Code, w.Body)
	}

	// The old validator no longer matches: full response, new ETag.
	r, w = newRequest("GET", "/v1/asn/64496")
	r.Header.Set("If-None-Match", etag1)
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("post-reload conditional = %d, want full 200", w.Code)
	}
	etag2 := w.Header().Get("ETag")
	if etag2 == "" || etag2 == etag1 {
		t.Fatalf("post-reload ETag %q did not rotate from %q", etag2, etag1)
	}
	if bytes.Equal(w.Body.Bytes(), body1) {
		t.Fatal("post-reload body identical to generation 1 (cache served stale data)")
	}

	// And the new validator revalidates.
	r, w = newRequest("GET", "/v1/asn/64496")
	r.Header.Set("If-None-Match", etag2)
	s.ServeHTTP(w, r)
	if w.Code != http.StatusNotModified {
		t.Fatalf("new validator = %d, want 304", w.Code)
	}
}

// TestProbeEndpointsInstrumented proves the satellite fix: /metrics,
// /healthz and /readyz ride the metrics wrapper, so their traffic shows
// up in /v1/health's endpoint table and on /metrics itself — while
// remaining exempt from the admission gate.
func TestProbeEndpointsInstrumented(t *testing.T) {
	s := New(lifestore.NewInMemory(tinySnapshot(1)), Options{})
	for _, path := range []string{"/metrics", "/healthz", "/readyz", "/healthz"} {
		r, w := newRequest("GET", path)
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, w.Code)
		}
	}
	r, w := newRequest("GET", "/v1/health")
	s.ServeHTTP(w, r)
	var resp struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int64{"/metrics": 1, "/healthz": 2, "/readyz": 1} {
		ep, ok := resp.Endpoints[path]
		if !ok {
			t.Errorf("%s missing from /v1/health endpoints", path)
			continue
		}
		if ep.Requests != want || ep.Errors != 0 {
			t.Errorf("%s = %d requests %d errors, want %d/0", path, ep.Requests, ep.Errors, want)
		}
	}
}

// TestShardEndpoint pins /v1/shard for both an unsharded source
// (sharded=false, still 200 — the router's probe must distinguish "not
// a shard" from "not our server") and a sharded one (full identity).
func TestShardEndpoint(t *testing.T) {
	plain := New(lifestore.NewInMemory(tinySnapshot(1)), Options{})
	r, w := newRequest("GET", "/v1/shard")
	plain.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("unsharded /v1/shard = %d", w.Code)
	}
	var resp struct {
		Sharded bool `json:"sharded"`
		Shard   *struct {
			Index int    `json:"index"`
			Count int    `json:"count"`
			Lo    uint32 `json:"lo"`
			Hi    uint32 `json:"hi"`
			Sum   string `json:"sum"`
		} `json:"shard"`
		Generation int64 `json:"generation"`
		ASNCount   int   `json:"asnCount"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sharded || resp.Shard != nil || resp.Generation != 1 || resp.ASNCount != len(tinyASNs) {
		t.Fatalf("unsharded /v1/shard = %+v", resp)
	}

	// A sharded store reports its range.
	dir := t.TempDir()
	plan, paths, err := lifestore.SaveSharded(tinySnapshot(1), 2, filepath.Join(dir, "lives.%d.snap"))
	if err != nil {
		t.Fatal(err)
	}
	st, si, err := lifestore.OpenShard(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sharded := New(st, Options{})
	r, w = newRequest("GET", "/v1/shard")
	sharded.ServeHTTP(w, r)
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Sharded || resp.Shard == nil {
		t.Fatalf("sharded /v1/shard = %+v", resp)
	}
	if resp.Shard.Index != 1 || resp.Shard.Count != 2 ||
		resp.Shard.Lo != uint32(si.Lo) || resp.Shard.Hi != uint32(si.Hi) {
		t.Fatalf("shard identity %+v does not match %+v", resp.Shard, si)
	}
	_ = plan
}
