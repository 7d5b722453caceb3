package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"parallellives/internal/dates"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
)

var (
	buildOnce sync.Once
	testSnap  *lifestore.Snapshot
	testImg   []byte
	buildErr  error
)

// fixtures runs the pipeline once per test binary and returns the
// captured snapshot plus its encoded bytes.
func fixtures(t testing.TB) (*lifestore.Snapshot, []byte) {
	t.Helper()
	buildOnce.Do(func() {
		opts := pipeline.DefaultOptions()
		opts.World.Scale = 0.02
		opts.World.Seed = 1
		opts.World.Start = dates.MustParse("2004-01-01")
		opts.World.End = dates.MustParse("2005-12-31")
		ds, err := pipeline.Run(opts)
		if err != nil {
			buildErr = err
			return
		}
		testSnap = ds.Snapshot()
		testImg, buildErr = lifestore.Encode(testSnap)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return testSnap, testImg
}

func get(t testing.TB, h http.Handler, path string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestColdStartMatchesFresh is the acceptance proof: a server over a
// snapshot opened from bytes on disk answers byte-for-byte identically
// to a server over the freshly computed dataset, without recomputing
// anything.
func TestColdStartMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap, img := fixtures(t)
	st, err := lifestore.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(st, Options{})
	fresh := New(lifestore.NewInMemory(snap), Options{})

	paths := []string{
		"/v1/taxonomy",
		"/v1/rir/all/series",
		"/v1/rir/arin/series?stride=7",
		"/v1/rir/ripencc/series?stride=365",
	}
	for _, l := range snap.Lives {
		paths = append(paths, fmt.Sprintf("/v1/asn/%s", l.ASN))
	}
	for _, p := range paths {
		codeC, bodyC := get(t, cold, p)
		codeF, bodyF := get(t, fresh, p)
		if codeC != http.StatusOK || codeF != http.StatusOK {
			t.Fatalf("%s: status cold=%d fresh=%d", p, codeC, codeF)
		}
		if !bytes.Equal(bodyC, bodyF) {
			t.Fatalf("%s: cold-start body differs from fresh body:\ncold:  %s\nfresh: %s", p, bodyC, bodyF)
		}
	}
}

// TestASNEndpoint covers the AS-prefix alias and the error paths.
func TestASNEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap, _ := fixtures(t)
	srv := New(lifestore.NewInMemory(snap), Options{})
	a := snap.Lives[0].ASN

	codePlain, bodyPlain := get(t, srv, fmt.Sprintf("/v1/asn/%s", a))
	codeAlias, bodyAlias := get(t, srv, fmt.Sprintf("/v1/asn/AS%s", a))
	if codePlain != http.StatusOK || codeAlias != http.StatusOK {
		t.Fatalf("lookup status: plain=%d alias=%d", codePlain, codeAlias)
	}
	if !bytes.Equal(bodyPlain, bodyAlias) {
		t.Fatal("AS-prefixed lookup differs from plain lookup")
	}
	var resp struct {
		Admin []struct {
			Category string `json:"category"`
		} `json:"admin"`
	}
	if err := json.Unmarshal(bodyPlain, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Admin) == 0 {
		t.Fatal("expected at least one admin life")
	}
	switch resp.Admin[0].Category {
	case "complete", "partial", "unused":
	default:
		t.Fatalf("admin category serialized as %q, want a taxonomy token", resp.Admin[0].Category)
	}

	if code, _ := get(t, srv, "/v1/asn/notanumber"); code != http.StatusBadRequest {
		t.Errorf("garbage ASN: got %d, want 400", code)
	}
	if code, _ := get(t, srv, "/v1/asn/4199999999"); code != http.StatusNotFound {
		t.Errorf("never-allocated ASN: got %d, want 404", code)
	}
	if code, _ := get(t, srv, "/v1/rir/mars/series"); code != http.StatusNotFound {
		t.Errorf("unknown registry: got %d, want 404", code)
	}
	if code, _ := get(t, srv, "/v1/rir/all/series?stride=0"); code != http.StatusBadRequest {
		t.Errorf("zero stride: got %d, want 400", code)
	}
}

// TestCacheCounters pins the per-endpoint request counters surfaced on
// /v1/health, and that a server keeps no response cache to report.
func TestCacheCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap, _ := fixtures(t)
	srv := New(lifestore.NewInMemory(snap), Options{})

	get(t, srv, "/v1/taxonomy")
	get(t, srv, "/v1/taxonomy")
	get(t, srv, "/v1/rir/all/series")

	_, body := get(t, srv, "/v1/health")
	var h struct {
		Cache     json.RawMessage `json:"cache"`
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Cache != nil {
		t.Errorf("health carries a cache block %s; the server keeps no response cache", h.Cache)
	}
	if got := h.Endpoints["/v1/taxonomy"].Requests; got != 2 {
		t.Errorf("taxonomy requests=%d, want 2", got)
	}
	if got := h.Endpoints["/v1/health"].Requests; got != 1 {
		t.Errorf("health requests=%d, want 1", got)
	}
}

// TestCachedBodyIdentical makes sure a repeated request renders the same
// bytes: the ETag is derived from the request, not the body, so it may
// only validate a body that every render reproduces.
func TestCachedBodyIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap, _ := fixtures(t)
	srv := New(lifestore.NewInMemory(snap), Options{})
	_, first := get(t, srv, "/v1/taxonomy")
	_, second := get(t, srv, "/v1/taxonomy")
	if !bytes.Equal(first, second) {
		t.Fatal("repeated request returned different bytes")
	}
}

// TestConcurrentHammer drives all endpoints from 64 goroutines; run
// under -race this is the concurrency acceptance check.
func TestConcurrentHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap, img := fixtures(t)
	st, err := lifestore.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{})

	paths := []string{
		"/v1/taxonomy",
		"/v1/rir/all/series",
		"/v1/rir/arin/series?stride=90",
		"/v1/health",
		"/v1/asn/notanumber", // keep the error path racing too
	}
	for _, l := range snap.Lives {
		paths = append(paths, fmt.Sprintf("/v1/asn/%s", l.ASN))
	}

	const goroutines = 64
	const perGoroutine = 50
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				p := paths[(g*perGoroutine+i)%len(paths)]
				code, body := get(t, srv, p)
				if code != http.StatusOK && code != http.StatusBadRequest {
					errs <- fmt.Errorf("%s: status %d", p, code)
					return
				}
				if len(body) == 0 {
					errs <- fmt.Errorf("%s: empty body", p)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	_, body := get(t, srv, "/v1/health")
	var h struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, em := range h.Endpoints {
		total += em.Requests
	}
	if want := int64(goroutines*perGoroutine + 1); total != want {
		t.Errorf("endpoint counters total %d requests, want %d", total, want)
	}
}
