package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
)

// TestChaosSoak is the serving-resilience acceptance test: the server
// runs over a faults.FlakyReaderAt-backed store while concurrent
// clients hammer every endpoint, a fault window opens and closes, and a
// hot reload fires mid-soak. The contract being proven:
//
//   - zero corrupt 200 bodies — every 200 on a deterministic path is
//     byte-identical to a pristine reference server's answer, whatever
//     the injector did to the underlying reads (CRCs catch the flips);
//   - failures surface only as the explicit taxonomy (500 read failure,
//     503 shed/short-circuit, 404 miss), never as anything else;
//   - the breaker trips during the fault window and recovers after it;
//   - the mid-soak reload swaps generations without a single dropped or
//     failed request;
//   - shed rate stays bounded and the whole story is on /metrics.
//
// Everything is sized to run in a -short -race test.
func TestChaosSoak(t *testing.T) {
	img := tinyImage(t, 1)
	inj := faults.NewInjector(faults.Plan{
		Seed:            42,
		ReadAtErrorRate: 0.5, // half the block reads fail outright...
		ReadAtFlipRate:  1.0, // ...and every surviving one is bit-flipped
	})
	flaky := inj.WrapReaderAt(1, bytes.NewReader(img))
	flaky.SetEnabled(false) // open the eager sections cleanly
	st, err := lifestore.NewStore(flaky)
	if err != nil {
		t.Fatal(err)
	}

	// The reload target: a pristine copy of the same snapshot on disk.
	path := filepath.Join(t.TempDir(), "lives.snap")
	if err := lifestore.SaveSnapshot(tinySnapshot(1), path); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	sw := NewSwappable(st, nil, "chaos-gen1")
	rel := NewReloader(sw, FileOpener(lifestore.Open, path, o.Registry), o.Registry)
	srv := New(sw, Options{
		Obs:              o,
		Reloader:         rel,
		MaxInFlight:      8,
		BreakerThreshold: 4,
		BreakerCooldown:  40 * time.Millisecond,
	})

	// Reference bodies from a server over the same data with no faults.
	ref := New(lifestore.NewInMemory(tinySnapshot(1)), Options{Obs: obs.New()})
	deterministic := []string{"/v1/taxonomy"}
	for _, a := range tinyASNs {
		deterministic = append(deterministic, fmt.Sprintf("/v1/asn/%s", a))
	}
	expected := make(map[string][]byte, len(deterministic))
	for _, p := range deterministic {
		code, body := get(t, ref, p)
		if code != http.StatusOK {
			t.Fatalf("reference %s: status %d", p, code)
		}
		expected[p] = body
	}
	paths := append([]string{"/v1/health", "/readyz"}, deterministic...)

	var (
		n200, n404, n500, n503, n504 atomic.Int64
		nOther, corrupt              atomic.Int64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const workers = 16
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(g+i)%len(paths)]
				code, body := get(t, srv, p)
				switch code {
				case http.StatusOK:
					n200.Add(1)
					if want, ok := expected[p]; ok && !bytes.Equal(body, want) {
						corrupt.Add(1)
					} else if !ok && p == "/v1/health" && !json.Valid(body) {
						corrupt.Add(1)
					}
				case http.StatusNotFound:
					n404.Add(1)
				case http.StatusInternalServerError:
					n500.Add(1)
				case http.StatusServiceUnavailable:
					n503.Add(1)
				case http.StatusGatewayTimeout:
					n504.Add(1)
				default:
					nOther.Add(1)
				}
			}
		}(g)
	}

	// Phase 1: clean warmup.
	time.Sleep(30 * time.Millisecond)
	// Phase 2: the fault window. Every block read now errors or comes
	// back bit-flipped; the breaker must trip. The window is
	// condition-based, not a fixed sleep: on a heavily loaded machine
	// the worker goroutines may get scheduled for only slivers of a
	// fixed window, so it stays open until the chaos has demonstrably
	// reached the store and tripped the breaker (bounded; the
	// assertions below report the failure if it never does).
	flaky.SetEnabled(true)
	windowDeadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(windowDeadline) {
		if v, ok := o.Registry.Sum(MetricBreakerTrips); ok && v >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // a few more faulted reads land as 500s
	// Phase 3: faults clear; after the cooldown a probe closes the
	// breaker again.
	flaky.SetEnabled(false)
	time.Sleep(150 * time.Millisecond)
	// Phase 4: hot reload mid-soak onto the pristine file-backed copy.
	if _, err := rel.Reload(context.Background()); err != nil {
		t.Fatalf("mid-soak reload: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	close(stop)
	wg.Wait()

	total := n200.Load() + n404.Load() + n500.Load() + n503.Load() + n504.Load()
	t.Logf("soak: %d requests (200=%d 404=%d 500=%d 503=%d 504=%d), injected errs=%d flips=%d",
		total, n200.Load(), n404.Load(), n500.Load(), n503.Load(), n504.Load(),
		flaky.Errs(), flaky.Flips())

	if got := corrupt.Load(); got != 0 {
		t.Errorf("%d corrupt 200 bodies served — the zero-corruption contract is broken", got)
	}
	if got := nOther.Load(); got != 0 {
		t.Errorf("%d responses outside the declared status taxonomy", got)
	}
	if n200.Load() == 0 {
		t.Error("no successful responses at all: the soak never actually served")
	}
	if n500.Load() == 0 {
		t.Error("no 500s during the fault window: chaos never reached the store")
	}
	if flaky.Errs() == 0 && flaky.Flips() == 0 {
		t.Error("injector reports zero faults: the soak tested nothing")
	}

	// The breaker tripped during the window and is closed again now: the
	// reloaded generation is clean, so one more lookup proves recovery.
	if code, body := get(t, srv, "/v1/asn/64496"); code != http.StatusOK ||
		!bytes.Equal(body, expected["/v1/asn/64496"]) {
		t.Errorf("post-soak lookup: status %d, want pristine 200", code)
	}
	lc := healthLifecycle(t, srv)
	if lc.Breaker == nil || lc.Breaker.Trips == 0 {
		t.Error("breaker never tripped during the fault window")
	}
	if lc.Breaker != nil && lc.Breaker.State != "closed" {
		t.Errorf("breaker state after recovery = %s, want closed", lc.Breaker.State)
	}
	if lc.Generation == nil || lc.Generation.Gen != 2 {
		t.Errorf("generation after mid-soak reload = %+v, want gen 2", lc.Generation)
	}
	if lc.PrevGeneration == nil || lc.PrevGeneration.Gen != 1 {
		t.Errorf("prevGeneration = %+v, want gen 1", lc.PrevGeneration)
	}
	if lc.Sheds > 0 && float64(lc.Sheds) > 0.9*float64(total) {
		t.Errorf("shed rate unbounded: %d of %d requests shed", lc.Sheds, total)
	}

	// The whole story lands on /metrics.
	_, metrics := get(t, srv, "/metrics")
	for _, name := range []string{
		MetricSheds, MetricBreakerState, MetricBreakerTrips,
		MetricBreakerShortCircuits, MetricReloads, MetricGeneration,
		MetricInFlight, MetricTimeouts, MetricPanics,
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if v, ok := o.Registry.Sum(MetricReloads); !ok || v < 1 {
		t.Errorf("reload counter sum = %v (ok=%v), want >= 1", v, ok)
	}
}
