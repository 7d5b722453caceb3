package router

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/serve"
)

// frontCase is one of the two HTTP fronts over the same fixture: a
// single serve.Server, or a Router over that fixture cut in two. What
// serve.Front owns must behave identically behind either.
type frontCase struct {
	name string
	h    http.Handler
	// slow makes every backend read behind the front take at least d.
	slow func(d time.Duration)
	// ring decodes the front's own exemplar ring out of /v1/debug/slow.
	ring func(body []byte) (obs.ExemplarSnapshot, error)
	// errors and inflight are the front's per-endpoint error and
	// in-flight families.
	errors, inflight string
}

// slowSource stalls lookups on demand — the serve-side twin of the
// fixture's flaky.delay.
type slowSource struct {
	serve.Source
	delay atomic.Int64
}

func (s *slowSource) LookupContext(ctx context.Context, a asn.ASN) (lifestore.ASNLives, bool, error) {
	time.Sleep(time.Duration(s.delay.Load()))
	return s.Source.LookupContext(ctx, a)
}

// bothFronts builds the two fronts with the same shared options.
func bothFronts(t *testing.T, snap *lifestore.Snapshot, exemplars, maxInFlight int, ids obs.IDSource) []frontCase {
	t.Helper()
	src := &slowSource{Source: lifestore.NewInMemory(snap)}
	direct := serve.New(src, serve.Options{ExemplarCapacity: exemplars, MaxInFlight: maxInFlight, SpanIDs: ids})
	set := startShards(t, snap, 2)
	routed := newTestRouter(t, set, Options{ExemplarCapacity: exemplars, MaxInFlight: maxInFlight, SpanIDs: ids})
	return []frontCase{{
		name:     "serve",
		h:        direct,
		slow:     func(d time.Duration) { src.delay.Store(int64(d)) },
		errors:   serve.MetricErrors,
		inflight: serve.MetricInFlight,
		ring: func(body []byte) (snap obs.ExemplarSnapshot, err error) {
			return snap, json.Unmarshal(body, &snap)
		},
	}, {
		name: "route",
		h:    routed,
		slow: func(d time.Duration) {
			for _, f := range set.flakies {
				f.delay.Store(int64(d))
			}
		},
		errors:   MetricErrors,
		inflight: MetricInFlight,
		ring: func(body []byte) (obs.ExemplarSnapshot, error) {
			var doc struct {
				Router obs.ExemplarSnapshot `json:"router"`
			}
			return doc.Router, json.Unmarshal(body, &doc)
		},
	}}
}

// TestArmedRingSkipsTracer pins the arming gate as the one tracing
// policy of both fronts: while the exemplar ring is filling every
// request records a span tree; once it has armed, an untraced request
// builds no tracer at all (it draws no span IDs), a traced one is traced
// exactly as before, and a late outlier still reaches /v1/debug/slow —
// outcome only.
func TestArmedRingSkipsTracer(t *testing.T) {
	const capacity = 4
	var drawn atomic.Int64
	ids := func() string { return fmt.Sprintf("%016x", drawn.Add(1)) }

	for _, fc := range bothFronts(t, fixtureSnapshot(1), capacity, 0, ids) {
		t.Run(fc.name, func(t *testing.T) {
			do := func(path, traceparent string) *httptest.ResponseRecorder {
				r := httptest.NewRequest(http.MethodGet, path, nil)
				if traceparent != "" {
					r.Header.Set(obs.TraceparentHeader, traceparent)
				}
				w := httptest.NewRecorder()
				fc.h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body)
				}
				return w
			}

			before := drawn.Load()
			for i := 0; i < capacity; i++ {
				do("/v1/asn/64496", "")
			}
			if drawn.Load() == before {
				t.Fatalf("arming requests drew no span IDs: the ring is not capturing trees")
			}

			before = drawn.Load()
			rec := do("/v1/asn/64496", "")
			if n := drawn.Load() - before; n != 0 {
				t.Errorf("untraced request after arming drew %d span IDs, want 0", n)
			}
			if h := rec.Header().Get(obs.SpanHeader); h != "" {
				t.Errorf("untraced request after arming answered a span summary: %s", h)
			}

			parent := obs.SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
			rec = do("/v1/asn/1000", parent.Traceparent())
			if drawn.Load() == before {
				t.Errorf("traced request after arming drew no span IDs")
			}
			var sum obs.SpanSummary
			if err := json.Unmarshal([]byte(rec.Header().Get(obs.SpanHeader)), &sum); err != nil {
				t.Fatalf("traced request after arming: span header %q: %v", rec.Header().Get(obs.SpanHeader), err)
			}
			if sum.TraceID != parent.TraceID || sum.ParentID != parent.SpanID || len(sum.Children) == 0 {
				t.Errorf("traced summary not stitched under the caller: %+v", sum)
			}

			fc.slow(30 * time.Millisecond)
			before = drawn.Load()
			do("/v1/asn/300", "")
			fc.slow(0)
			if n := drawn.Load() - before; n != 0 {
				t.Errorf("slow untraced request drew %d span IDs, want 0", n)
			}
			ring, err := fc.ring(do("/v1/debug/slow", "").Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range ring.Slowest {
				if e.Path == "/v1/asn/300" {
					found = true
					if e.Trace.Name != "" || e.TraceID != "" || e.Status != http.StatusOK {
						t.Errorf("late outlier is not outcome-only: %+v", e)
					}
				}
			}
			if !found {
				t.Errorf("slow untraced request missing from /v1/debug/slow: %+v", ring.Slowest)
			}
		})
	}
}

// smallBuffers shrinks each accepted connection's send buffer, so a
// response of a hundred kilobytes cannot vanish into socket buffers
// when the client stops reading.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestHardenedServerAgainstBadClients drives both fronts through
// serve.NewHTTPServer on a loopback listener with shortened timeouts:
// neither a slow-loris header, an oversized header block, nor a client
// that stops reading may cost well-behaved clients anything.
func TestHardenedServerAgainstBadClients(t *testing.T) {
	// A 7,000-day window makes the stride-1 series body ~130 KB.
	snap := fixtureSnapshot(1)
	const days = 7000
	snap.Meta.End = snap.Meta.Start.AddDays(days - 1)
	snap.Series = &core.AliveSeries{Start: snap.Meta.Start, End: snap.Meta.End,
		AdminOverall: make([]int, days), OpOverall: make([]int, days)}
	for r := range snap.Series.AdminPerRIR {
		snap.Series.AdminPerRIR[r] = make([]int, days)
		snap.Series.OpPerRIR[r] = make([]int, days)
	}
	const bigBody = "/v1/rir/all/series?stride=1"

	for _, fc := range bothFronts(t, snap, 0, 1, nil) {
		t.Run(fc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			opts := serve.HTTPOptions{ReadHeaderTimeout: 300 * time.Millisecond, WriteTimeout: time.Second}
			srv := serve.NewHTTPServer(fc.h, opts)
			go srv.Serve(smallBuffers{ln})
			defer srv.Close()
			base := "http://" + ln.Addr().String()

			status := func(path string) int {
				resp, err := http.Get(base + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				return resp.StatusCode
			}
			metric := func(name string) float64 {
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				samples, err := obs.ParseExposition(body)
				if err != nil {
					t.Fatal(err)
				}
				return samples.Sum(name, nil)
			}
			dial := func() net.Conn {
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				c.SetDeadline(time.Now().Add(10 * time.Second))
				return c
			}

			// Slow loris: header lines keep arriving, each well inside any
			// idle timeout, but the block never ends. The server must hang
			// up at ReadHeaderTimeout, and must keep answering others
			// meanwhile.
			loris := dial()
			defer loris.Close()
			fmt.Fprintf(loris, "GET /v1/taxonomy HTTP/1.1\r\nHost: x\r\n")
			hungUp := make(chan int, 1)
			go func() {
				n, _ := io.Copy(io.Discard, loris) // returns when the server closes
				hungUp <- int(n)
			}()
			start := time.Now()
			for disconnected := false; !disconnected; {
				if code := status("/v1/taxonomy"); code != http.StatusOK {
					t.Fatalf("well-behaved request during the slow header: status %d", code)
				}
				fmt.Fprintf(loris, "X-Drip: %d\r\n", time.Since(start))
				select {
				case n := <-hungUp:
					disconnected = true
					if n != 0 {
						t.Errorf("server answered %d bytes to a request whose header never ended", n)
					}
				case <-time.After(50 * time.Millisecond):
					if time.Since(start) > 20*opts.ReadHeaderTimeout {
						t.Fatalf("slow-header client still connected %v after ReadHeaderTimeout %v", time.Since(start), opts.ReadHeaderTimeout)
					}
				}
			}

			// Header size: the server sets no MaxHeaderBytes, so the limit
			// is net/http's default — a quarter of it passes, just over it
			// is refused with 431 before any handler (or its error counter)
			// sees the request.
			for _, tc := range []struct{ pad, want int }{
				{http.DefaultMaxHeaderBytes / 4, http.StatusOK},
				{http.DefaultMaxHeaderBytes + 8<<10, http.StatusRequestHeaderFieldsTooLarge},
			} {
				c := dial()
				go func() { // the server may stop reading part-way: write errors are expected
					fmt.Fprintf(c, "GET /v1/taxonomy HTTP/1.1\r\nHost: x\r\n")
					line := "X-Pad: " + strings.Repeat("p", 1015) + "\r\n" // 1 KiB a line
					for sent := 0; sent < tc.pad; sent += len(line) {
						if _, err := io.WriteString(c, line); err != nil {
							return
						}
					}
					io.WriteString(c, "\r\n")
				}()
				resp, err := http.ReadResponse(bufio.NewReader(c), nil)
				if err != nil {
					t.Fatalf("%d-byte header: reading the response: %v", tc.pad, err)
				}
				if resp.StatusCode != tc.want {
					t.Errorf("%d-byte header: status %d, want %d", tc.pad, resp.StatusCode, tc.want)
				}
				c.Close()
			}
			if v := metric(fc.errors); v != 0 {
				t.Errorf("%s = %v after the 431, want 0: a refused header is not a handler error", fc.errors, v)
			}

			// Stalled reader: with one admission slot, a client that asks
			// for a large body and never reads it holds the slot while the
			// server's write blocks — and loses it at WriteTimeout.
			stalled := dial()
			defer stalled.Close()
			stalled.(*net.TCPConn).SetReadBuffer(4 << 10)
			fmt.Fprintf(stalled, "GET %s HTTP/1.1\r\nHost: x\r\n\r\n", bigBody)
			waitFor(t, "the stalled request to be admitted", func() bool { return metric(fc.inflight) == 1 })
			if code := status("/v1/taxonomy"); code != http.StatusServiceUnavailable {
				t.Errorf("request beside the stalled one: status %d, want 503 (the one slot is taken)", code)
			}
			held := time.Now()
			waitFor(t, "the stalled request's slot to be released", func() bool { return metric(fc.inflight) == 0 })
			if d := time.Since(held); d > 5*opts.WriteTimeout {
				t.Errorf("slot released %v after the stall began, WriteTimeout is %v", d, opts.WriteTimeout)
			}
			if code := status("/v1/taxonomy"); code != http.StatusOK {
				t.Errorf("request after WriteTimeout: status %d, want 200", code)
			}
		})
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
