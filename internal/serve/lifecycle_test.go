package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"parallellives/internal/obs"
)

// healthLifecycle pulls the lifecycle section out of a /v1/health body.
func healthLifecycle(t *testing.T, h http.Handler) lifecycleJSON {
	t.Helper()
	code, body := get(t, h, "/v1/health")
	if code != http.StatusOK {
		t.Fatalf("/v1/health: status %d", code)
	}
	var resp struct {
		Lifecycle lifecycleJSON `json:"lifecycle"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Lifecycle
}

// TestAdmissionGateSheds saturates a MaxInFlight=2 server with parked
// requests and checks the third is shed with 503 + Retry-After while
// the probe endpoints keep answering — the orchestrator must never
// mistake a busy server for a dead one.
func TestAdmissionGateSheds(t *testing.T) {
	src := newBlockingSource(tinyStore(t, 1))
	srv := New(src, Options{MaxInFlight: 2, Obs: obs.New()})

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := get(t, srv, "/v1/asn/64496")
			codes <- code
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-src.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("parked requests never reached the source")
		}
	}

	req, rec := newRequest(http.MethodGet, "/v1/asn/64500")
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Errorf("shed body is not JSON: %q", rec.Body.Bytes())
	}

	// Probes and metrics answer through the saturation.
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz under saturation: status %d, want 200", code)
	}
	if code, _ := get(t, srv, "/readyz"); code != http.StatusOK {
		t.Errorf("/readyz under saturation: status %d, want 200", code)
	}
	if code, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics under saturation: status %d, want 200", code)
	}

	close(src.release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("parked request finished with %d, want 200", code)
		}
	}
	lc := healthLifecycle(t, srv)
	if lc.Sheds != 1 {
		t.Errorf("sheds counter = %d, want 1", lc.Sheds)
	}
	if lc.InFlight != 1 { // the /v1/health request itself
		t.Errorf("inFlight = %d, want 1 (the health request)", lc.InFlight)
	}
}

// TestPanicRecovery pins that a handler panic becomes one 500 response
// — the process and every later request stay healthy.
func TestPanicRecovery(t *testing.T) {
	srv := New(panicSource{tinyStore(t, 1)}, Options{Obs: obs.New()})

	code, body := get(t, srv, "/v1/taxonomy")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", code)
	}
	if !strings.Contains(string(body), "internal panic") {
		t.Errorf("panic body %q does not name the panic", body)
	}
	if code, _ := get(t, srv, "/v1/asn/64496"); code != http.StatusOK {
		t.Errorf("request after panic: status %d, want 200", code)
	}
	if lc := healthLifecycle(t, srv); lc.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", lc.Panics)
	}
}

// TestRequestDeadline pins the 504 taxonomy: a lookup outliving
// RequestTimeout is abandoned via context, counted as a timeout, and
// is neutral to the breaker — slow is not broken.
func TestRequestDeadline(t *testing.T) {
	src := &slowSource{Source: tinyStore(t, 1), delay: 5 * time.Second}
	srv := New(src, Options{RequestTimeout: 30 * time.Millisecond, Obs: obs.New()})

	start := time.Now()
	code, _ := get(t, srv, "/v1/asn/64496")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow lookup: status %d, want 504", code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline response took %v, want prompt abandonment", elapsed)
	}
	lc := healthLifecycle(t, srv)
	if lc.Timeouts != 1 {
		t.Errorf("timeouts counter = %d, want 1", lc.Timeouts)
	}
	if lc.Breaker == nil || lc.Breaker.State != "closed" || lc.Breaker.ConsecutiveFailures != 0 {
		t.Errorf("breaker after deadline = %+v, want closed with no failures", lc.Breaker)
	}
}

// TestBreakerTransitions drives the breaker state machine with an
// injected clock: threshold failures open it, cooldown admits exactly
// one probe, a failed probe re-opens, a successful probe closes.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Minute, obs.New().Registry)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("failure %d: breaker should still be closed", i)
		}
		b.OnFailure()
	}
	if state, consec, trips, _ := b.Snapshot(); state != "closed" || consec != 2 || trips != 0 {
		t.Fatalf("after 2 failures: state=%s consec=%d trips=%d", state, consec, trips)
	}
	b.Allow()
	b.OnFailure() // third consecutive failure: trip
	if state, _, trips, _ := b.Snapshot(); state != "open" || trips != 1 {
		t.Fatalf("after threshold: state=%s trips=%d, want open/1", state, trips)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	if _, _, _, shorts := b.Snapshot(); shorts != 1 {
		t.Fatalf("short-circuits = %d, want 1", shorts)
	}

	now = now.Add(61 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if state, _, _, _ := b.Snapshot(); state != "half-open" {
		t.Fatalf("state after cooldown = %s, want half-open", state)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.OnFailure() // probe failed: straight back to open
	if state, _, trips, _ := b.Snapshot(); state != "open" || trips != 2 {
		t.Fatalf("after failed probe: state=%s trips=%d, want open/2", state, trips)
	}

	now = now.Add(61 * time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown refused the probe")
	}
	b.OnNeutral() // cancelled probe: slot released, state unchanged
	if state, _, _, _ := b.Snapshot(); state != "half-open" {
		t.Fatalf("state after neutral probe = %s, want half-open", state)
	}
	if !b.Allow() {
		t.Fatal("neutral outcome did not release the probe slot")
	}
	b.OnSuccess()
	if state, consec, _, _ := b.Snapshot(); state != "closed" || consec != 0 {
		t.Fatalf("after successful probe: state=%s consec=%d, want closed/0", state, consec)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
}

// TestBreakerHalfOpenSingleProbeConcurrent pins the half-open admission
// contract under contention: when the cooldown elapses with a stampede
// of concurrent requests waiting, exactly one wins the probe slot per
// resolution — everyone else short-circuits. The router's replica
// picker depends on this (an open-breaker replica must cost at most one
// in-flight probe, never a thundering herd against a struggling
// backend).
func TestBreakerHalfOpenSingleProbeConcurrent(t *testing.T) {
	now := time.Unix(1000, 0)
	var clockMu sync.Mutex
	b := newBreaker(1, time.Minute, obs.New().Registry)
	b.now = func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }

	b.Allow()
	b.OnFailure() // threshold 1: open immediately
	clockMu.Lock()
	now = now.Add(61 * time.Second) // cooldown elapsed; next Allow half-opens
	clockMu.Unlock()

	stampede := func() (admitted int64) {
		var n int64
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Allow() {
					mu.Lock()
					n++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return n
	}

	if n := stampede(); n != 1 {
		t.Fatalf("half-open transition admitted %d concurrent probes, want exactly 1", n)
	}
	if state, _, _, _ := b.Snapshot(); state != "half-open" {
		t.Fatalf("state after stampede = %s, want half-open", state)
	}

	// A neutral outcome releases the slot; the next stampede again
	// admits exactly one.
	b.OnNeutral()
	if n := stampede(); n != 1 {
		t.Fatalf("released probe slot admitted %d concurrent probes, want exactly 1", n)
	}

	// The probe succeeds: closed, and the whole stampede flows.
	b.OnSuccess()
	if n := stampede(); n != 32 {
		t.Fatalf("closed breaker admitted %d of 32, want all", n)
	}
	// A failed probe from half-open re-opens: nobody gets through until
	// the next cooldown.
	b.Allow()
	b.OnFailure()
	clockMu.Lock()
	now = now.Add(61 * time.Second)
	clockMu.Unlock()
	b.Allow() // take the probe slot
	b.OnFailure()
	if n := stampede(); n != 0 {
		t.Fatalf("re-opened breaker admitted %d requests before cooldown, want 0", n)
	}
}

// TestBreakerServesShortCircuits is the server-level breaker check:
// consecutive backend failures turn 500s into immediate 503s with
// Retry-After, /readyz goes not-ready, and recovery closes the loop.
func TestBreakerServesShortCircuits(t *testing.T) {
	src := &failingSource{Source: tinyStore(t, 1)}
	src.broken.Store(true)
	srv := New(src, Options{
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		Obs:              obs.New(),
	})

	for i := 0; i < 3; i++ {
		if code, _ := get(t, srv, fmt.Sprintf("/v1/asn/%d?i=%d", 64496, i)); code != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, code)
		}
	}
	req, rec := newRequest(http.MethodGet, "/v1/asn/64500")
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("tripped breaker: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("short-circuit response missing Retry-After")
	}
	if code, _ := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with open breaker: status %d, want 503", code)
	}
	lc := healthLifecycle(t, srv)
	if lc.Breaker == nil || lc.Breaker.State != "open" || lc.Breaker.Trips != 1 {
		t.Fatalf("breaker health = %+v, want open with 1 trip", lc.Breaker)
	}

	// Heal the backend, wait out the cooldown: the next request is the
	// half-open probe, succeeds, and closes the breaker.
	src.broken.Store(false)
	time.Sleep(70 * time.Millisecond)
	if code, _ := get(t, srv, "/v1/asn/65550"); code != http.StatusOK {
		t.Fatalf("probe after recovery: status %d, want 200", code)
	}
	if lc := healthLifecycle(t, srv); lc.Breaker.State != "closed" {
		t.Errorf("breaker after recovery = %s, want closed", lc.Breaker.State)
	}
	if code, _ := get(t, srv, "/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after recovery: status %d, want 200", code)
	}
}

// TestGracefulShutdown proves the drain contract over a real listener:
// cancelling the run context refuses new connections while an in-flight
// slow request still completes with 200, all inside the drain deadline.
func TestGracefulShutdown(t *testing.T) {
	src := &slowSource{Source: tinyStore(t, 1), delay: 300 * time.Millisecond}
	srv := New(src, Options{Obs: obs.New()})

	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- Run(ctx, ln, srv, HTTPOptions{DrainTimeout: 5 * time.Second}) }()

	type result struct {
		code int
		body []byte
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := http.Get(addr + "/v1/asn/64496")
		if err != nil {
			slow <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body := make([]byte, 0, 512)
		buf := make([]byte, 512)
		for {
			n, err := resp.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		slow <- result{code: resp.StatusCode, body: body}
	}()

	// Wait until the slow request is parked inside the handler, then
	// pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for healthInflight(t, srv) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownStart := time.Now()
	cancel()

	// New connections are refused once the listener closes.
	refused := false
	for time.Now().Before(deadline) {
		resp, err := http.Get(addr + "/healthz")
		if err != nil {
			refused = true
			break
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Error("new connections were still accepted after shutdown began")
	}

	r := <-slow
	if r.err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", r.code)
	}
	if !json.Valid(r.body) {
		t.Errorf("in-flight response body is not valid JSON: %q", r.body)
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within the drain deadline")
	}
	if elapsed := time.Since(shutdownStart); elapsed > 5*time.Second {
		t.Errorf("drain took %v, past the deadline", elapsed)
	}
}

// healthInflight reads the in-flight gauge without going through the
// HTTP surface (which would itself count as in-flight).
func healthInflight(t *testing.T, s *Server) int64 {
	t.Helper()
	return s.front.Chain.inflight.Load()
}
