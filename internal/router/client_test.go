package router

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/serve"
)

// testClient is a shard client over its own connection pool, with a
// breaker that opens on the first failure, so a test can tell a
// breaker-neutral outcome from a failure.
func testClient(t *testing.T, base string) *shardClient {
	t.Helper()
	p, err := newReplicaPool(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.closeIdle)
	reg := obs.New().Registry
	return &shardClient{baseURL: base, conns: p, breaker: serve.NewBreaker(1, time.Minute,
		reg.Gauge("parallellives_test_breaker_state", ""),
		reg.Counter("parallellives_test_breaker_trips_total", ""),
		reg.Counter("parallellives_test_breaker_short_circuits_total", ""))}
}

// countingListener counts the TCP connections a test server accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// startCounting serves h on a loopback listener that counts accepts.
func startCounting(t *testing.T, h http.Handler) (*httptest.Server, *countingListener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, ln
}

// TestSequentialFetchesShareOneConnection pins the keep-alive: fetches
// one after another to one replica ride one TCP connection.
func TestSequentialFetchesShareOneConnection(t *testing.T) {
	ts, ln := startCounting(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "reply to "+r.URL.RequestURI())
	}))
	sc := testClient(t, ts.URL)
	for i := 0; i < 20; i++ {
		path := "/x?i=" + strconv.Itoa(i)
		u, err := sc.fetch(context.Background(), http.MethodGet, path, "")
		if err != nil || string(u.body) != "reply to "+path {
			t.Fatalf("fetch %d = %v, %v", i, u, err)
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Errorf("20 sequential fetches opened %d connections, want 1", n)
	}
}

// TestChunkedReplyReadWhole fetches a reply the server can only send
// chunked (it flushes before it knows the length), as a replica's
// /metrics is: the body arrives whole, and the connection is reused.
func TestChunkedReplyReadWhole(t *testing.T) {
	part := bytes.Repeat([]byte("parallellives_x 1\n"), 1000)
	ts, ln := startCounting(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 3; i++ {
			w.Write(part)
			w.(http.Flusher).Flush()
		}
	}))
	sc := testClient(t, ts.URL)
	want := bytes.Repeat(part, 3)
	for i := 0; i < 2; i++ {
		u, err := sc.fetch(context.Background(), http.MethodGet, "/metrics", "")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(u.body, want) {
			t.Fatalf("fetch %d: chunked body is %d bytes, want %d", i, len(u.body), len(want))
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Errorf("two chunked fetches opened %d connections, want 1", n)
	}
}

// TestCancelledFetchNotReused cancels a fetch mid-body against a replica
// that stalls after its headers. The fetch returns the context error and
// leaves the breaker alone, and the next fetch gets its own body byte
// for byte: nothing of the cancelled reply may reach it, so the
// cancelled connection must never be parked.
func TestCancelledFetchNotReused(t *testing.T) {
	half := bytes.Repeat([]byte("s"), 32<<10)
	sent, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ts, _ := startCounting(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stall" {
			io.WriteString(w, "fresh body")
			return
		}
		defer close(finished)
		w.Header().Set("Content-Length", strconv.Itoa(2*len(half)))
		w.Write(half)
		w.(http.Flusher).Flush()
		close(sent)
		<-release
		w.Write(half)
	}))
	sc := testClient(t, ts.URL)
	// Park a connection first, so the stalled fetch runs on a reused one.
	if _, err := sc.fetch(context.Background(), http.MethodGet, "/ok", ""); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sc.fetch(ctx, http.MethodGet, "/stall", "")
		errc <- err
	}()
	<-sent
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch = %v, want context.Canceled", err)
	}
	if state, consec, _, _ := sc.breaker.Snapshot(); state != "closed" || consec != 0 {
		t.Errorf("breaker after a cancelled fetch = %s with %d failures, want closed with 0", state, consec)
	}
	close(release)
	<-finished

	for i := 0; i < 3; i++ {
		u, err := sc.fetch(context.Background(), http.MethodGet, "/ok", "")
		if err != nil {
			t.Fatalf("fetch %d after the cancelled one: %v", i, err)
		}
		if string(u.body) != "fresh body" {
			t.Fatalf("fetch %d after the cancelled one read a %d-byte body, want its own", i, len(u.body))
		}
	}
}

// TestReplicaRestartRetriedOnce restarts the one replica of a router on
// the same address, which leaves the router's parked connection dead.
// The next read must be answered anyway: the request goes once more on
// a fresh dial, which is no failover, no breaker failure and no second
// shard request.
func TestReplicaRestartRetriedOnce(t *testing.T) {
	h := serve.New(lifestore.NewInMemory(fixtureSnapshot(1)), serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	first := &http.Server{Handler: h}
	go first.Serve(ln)
	defer first.Close()

	rt := newRouterOver(t, []string{"http://" + addr}, Options{CacheSize: -1})
	if w := get(rt, "/v1/asn/10", nil); w.Code != http.StatusOK {
		t.Fatalf("read before the restart = %d", w.Code)
	}
	first.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingListener{Listener: ln2}
	second := &http.Server{Handler: h}
	go second.Serve(counting)
	defer second.Close()

	sc := rt.topo.Load().replicas[0]
	before := sc.reqs.Value()
	w := get(rt, "/v1/asn/10", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("read after the restart = %d: %s", w.Code, w.Body)
	}
	if v := w.Header().Get(FailoverHeader); v != "" {
		t.Errorf("read after the restart carries %s: %s", FailoverHeader, v)
	}
	if state, consec, _, _ := sc.breaker.Snapshot(); state != "closed" || consec != 0 {
		t.Errorf("breaker after the restart = %s with %d failures, want closed with 0", state, consec)
	}
	if n := sc.reqs.Value() - before; n != 1 {
		t.Errorf("one read counted %d shard requests, want 1", n)
	}
	if n := sc.errs.Value(); n != 0 {
		t.Errorf("shard errors = %d, want 0", n)
	}
	if n := counting.accepts.Load(); n != 1 {
		t.Errorf("the restarted replica accepted %d connections, want 1", n)
	}
}

// TestEndlessHeaderIsAShardFailure answers from a replica whose header
// block never ends: the fetch stops reading at maxReply and fails,
// counted against the replica's breaker, instead of growing without
// bound.
func TestEndlessHeaderIsAShardFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.WriteString(c, "HTTP/1.1 200 OK\r\n")
		line := []byte("X-Pad: " + string(bytes.Repeat([]byte("p"), 1015)) + "\r\n")
		for {
			if _, err := c.Write(line); err != nil {
				return
			}
		}
	}()
	sc := testClient(t, "http://"+ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sc.fetch(ctx, http.MethodGet, "/x", ""); !errors.Is(err, errShardDown) {
		t.Fatalf("fetch against an endless header = %v, want a shard failure", err)
	}
	if state, _, _, _ := sc.breaker.Snapshot(); state != "open" {
		t.Errorf("breaker after an endless header = %s, want open", state)
	}
}

// TestRequestTargetMatchesNewRequest pins requestTarget to what
// http.NewRequest made of the same decoded path and raw query: plain
// paths pass through untouched, anything else is escaped the same way
// or refused the same way.
func TestRequestTargetMatchesNewRequest(t *testing.T) {
	for _, pathq := range []string{
		"/v1/asn/10", "/v1/rir/all/series?stride=30", "/v1/rir/a b/series",
		"/v1/rir/ripe%ncc/series", "/v1/rir/ü/series", "/x?q=a%20b&r=ü", "/x#frag",
		"/x?", "/a;b,c=d@e!f'g(h)*i+j$k&l:m~n", "/a\"b<c>", "/a%zz?b=%zz",
	} {
		got, gotErr := requestTarget(pathq)
		req, wantErr := http.NewRequest(http.MethodGet, "http://h"+pathq, nil)
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("%q: error %v, http.NewRequest's %v", pathq, gotErr, wantErr)
			continue
		}
		if wantErr == nil && got != req.URL.RequestURI() {
			t.Errorf("%q: target %q, http.NewRequest's %q", pathq, got, req.URL.RequestURI())
		}
	}
}
