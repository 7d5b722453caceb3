package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
)

// reloadFixture builds a reloading server over a snapshot file the way
// `parallellives serve` does, returning the snapshot path for overwrites.
func reloadFixture(t *testing.T, o *obs.Obs) (*Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lives.snap")
	if err := lifestore.SaveSnapshot(tinySnapshot(1), path); err != nil {
		t.Fatal(err)
	}
	srv, err := NewReloadable(context.Background(), FileOpener(lifestore.Open, path, o.Registry), Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return srv, path
}

func postReload(t *testing.T, h http.Handler) (int, []byte) {
	t.Helper()
	req, rec := newRequest(http.MethodPost, "/v1/admin/reload")
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestHotReloadSwapsGenerations reloads a changed snapshot through the
// admin endpoint and checks the generation bookkeeping and that the new
// data is what's served.
func TestHotReloadSwapsGenerations(t *testing.T) {
	o := obs.New()
	srv, path := reloadFixture(t, o)

	code, before := get(t, srv, "/v1/asn/64496")
	if code != http.StatusOK {
		t.Fatalf("initial lookup: status %d", code)
	}

	// A different seed changes each admin life's opaque org ID, so the
	// reloaded generation serves observably different bodies.
	if err := lifestore.SaveSnapshot(tinySnapshot(2), path); err != nil {
		t.Fatal(err)
	}
	code, body := postReload(t, srv)
	if code != http.StatusOK {
		t.Fatalf("reload: status %d, body %s", code, body)
	}
	var info GenInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Gen != 2 || info.ASNCount != len(tinyASNs) {
		t.Errorf("reload info = %+v, want gen 2 over %d ASNs", info, len(tinyASNs))
	}

	code, after := get(t, srv, "/v1/asn/64496")
	if code != http.StatusOK {
		t.Fatalf("post-reload lookup: status %d", code)
	}
	if string(before) == string(after) {
		t.Error("post-reload body identical to pre-reload: store not swapped")
	}

	lc := healthLifecycle(t, srv)
	if lc.Generation == nil || lc.Generation.Gen != 2 {
		t.Errorf("health generation = %+v, want gen 2", lc.Generation)
	}
	if lc.PrevGeneration == nil || lc.PrevGeneration.Gen != 1 {
		t.Errorf("health prevGeneration = %+v, want gen 1", lc.PrevGeneration)
	}
	if v, ok := o.Registry.Value(MetricGeneration); !ok || v != 2 {
		t.Errorf("generation gauge = %v (ok=%v), want 2", v, ok)
	}
}

// TestReloadRejectsCorrupt overwrites the snapshot with two corruption
// shapes — garbage that fails open, and a bit-flipped block that only
// full verification catches — and checks both are rejected with 502
// while the old generation keeps serving.
func TestReloadRejectsCorrupt(t *testing.T) {
	o := obs.New()
	srv, path := reloadFixture(t, o)

	img := tinyImage(t, 1)
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)-6] ^= 0x80 // inside the last life block

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("not a snapshot at all")},
		{"bitflipped-block", flipped},
	} {
		// Replace atomically (temp + rename), the way SaveSnapshot and
		// any sane operator does: the old generation's open fd keeps
		// reading the previous inode.
		tmp := path + ".next"
		if err := os.WriteFile(tmp, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
		code, body := postReload(t, srv)
		if code != http.StatusBadGateway {
			t.Errorf("%s: reload status %d, want 502 (body %s)", tc.name, code, body)
		}
		if code, _ := get(t, srv, "/v1/asn/64496"); code != http.StatusOK {
			t.Errorf("%s: old generation stopped serving: status %d", tc.name, code)
		}
		if lc := healthLifecycle(t, srv); lc.Generation == nil || lc.Generation.Gen != 1 {
			t.Errorf("%s: generation = %+v, want still gen 1", tc.name, lc.Generation)
		}
	}
}

// TestReloadUnderConcurrentLoad swaps generations repeatedly while
// clients hammer lookups; run under -race this is the atomic-swap
// acceptance check. Every response must be a valid 200 — a swap must
// never surface as a failed or dropped request.
func TestReloadUnderConcurrentLoad(t *testing.T) {
	o := obs.New()
	srv, path := reloadFixture(t, o)

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := tinyASNs[(g+i)%len(tinyASNs)]
				code, body := get(t, srv, fmt.Sprintf("/v1/asn/%s", a))
				if code != http.StatusOK || !json.Valid(body) {
					errs <- fmt.Errorf("AS%s during reload churn: status %d body %q", a, code, body)
					return
				}
			}
		}(g)
	}

	for i := 0; i < 5; i++ {
		seed := int64(i%2 + 1)
		if err := lifestore.SaveSnapshot(tinySnapshot(seed), path); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Reload(context.Background()); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lc := healthLifecycle(t, srv); lc.Generation == nil || lc.Generation.Gen != 6 {
		t.Errorf("generation after 5 reloads = %+v, want 6", lc.Generation)
	}
}

// TestReloadRetiresOldGeneration pins the refcounted close: a reload
// with a request in flight must not close the old generation until the
// request returns, and must close it promptly afterwards. The request
// reads the generation it borrowed to the end, and the next one reads
// the new generation.
func TestReloadRetiresOldGeneration(t *testing.T) {
	oldSrc := newBlockingSource(lifestore.NewInMemory(tinySnapshot(1)))
	closer := &recordCloser{}
	srv, err := NewReloadable(context.Background(), openInTurn(
		fixedOpener(oldSrc, closer, "gen1"),
		fixedOpener(lifestore.NewInMemory(tinySnapshot(2)), nil, "gen2"),
	), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("/v1/asn/%s", tinyASNs[0])
	_, want1 := get(t, New(lifestore.NewInMemory(tinySnapshot(1)), Options{}), path)
	_, want2 := get(t, New(lifestore.NewInMemory(tinySnapshot(2)), Options{}), path)

	type response struct {
		code       int
		etag, body string
	}
	borrowed := make(chan response, 1)
	go func() {
		r, w := newRequest(http.MethodGet, path)
		srv.ServeHTTP(w, r)
		borrowed <- response{w.Code, w.Header().Get("ETag"), w.Body.String()}
	}()
	select {
	case <-oldSrc.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the old generation")
	}

	info, err := srv.Reload(context.Background())
	if err != nil || info.Gen != 2 {
		t.Fatalf("reload = %+v, %v; want gen 2", info, err)
	}
	// The old generation still has a borrower: its closer must not fire.
	time.Sleep(20 * time.Millisecond)
	if closer.closed.Load() {
		t.Fatal("old generation closed while a request was still borrowing it")
	}

	close(oldSrc.release)
	got := <-borrowed
	if got.code != http.StatusOK || got.etag != EtagFor(1, path) || got.body != string(want1) {
		t.Fatalf("in-flight request = %d, ETag %q, body %s; want generation 1's 200", got.code, got.etag, got.body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !closer.closed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("old generation never closed after its last borrower returned")
		}
		time.Sleep(time.Millisecond)
	}

	// New requests see the new generation.
	if code, body := get(t, srv, path); code != http.StatusOK || string(body) != string(want2) {
		t.Errorf("post-reload request = %d %s, want generation 2's body", code, body)
	}
	if lc := healthLifecycle(t, srv); lc.Generation == nil || lc.Generation.Gen != 2 ||
		lc.PrevGeneration == nil || lc.PrevGeneration.Gen != 1 {
		t.Errorf("generations = %+v / %+v, want 2 / 1", lc.Generation, lc.PrevGeneration)
	}
}

// TestCloseWaitsForBorrower pins Server.Close: with a request parked in
// the serving generation, Close must not close its store until the
// request returns, and must close it exactly once afterwards, however
// often Close is called. A reload after Close fails.
func TestCloseWaitsForBorrower(t *testing.T) {
	src := newBlockingSource(lifestore.NewInMemory(tinySnapshot(1)))
	closer := &recordCloser{}
	srv, err := NewReloadable(context.Background(), openInTurn(
		fixedOpener(src, closer, "gen1"),
		fixedOpener(lifestore.NewInMemory(tinySnapshot(2)), nil, "gen2"),
	), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("/v1/asn/%s", tinyASNs[0])
	done := make(chan int, 1)
	go func() {
		r, w := newRequest(http.MethodGet, path)
		srv.ServeHTTP(w, r)
		done <- w.Code
	}()
	select {
	case <-src.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the serving generation")
	}

	srv.Close()
	srv.Close()
	time.Sleep(20 * time.Millisecond)
	if closer.closed.Load() {
		t.Fatal("serving generation closed while a request was still borrowing it")
	}
	if _, err := srv.Reload(context.Background()); err == nil {
		t.Error("reload after Close succeeded")
	}

	close(src.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked request = %d, want 200", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !closer.closed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("serving generation never closed after its last borrower returned")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	time.Sleep(20 * time.Millisecond)
	if n := closer.calls.Load(); n != 1 {
		t.Errorf("store closed %d times, want 1", n)
	}
}
