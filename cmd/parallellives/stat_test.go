package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"parallellives/internal/router"
)

// replicaStub serves a serve process's /metrics: reqs requests so far
// and `step` more on every later scrape, so a second poll has something
// to difference.
func replicaStub(t *testing.T, reqs, step, errs int64, gen int, lag string) *httptest.Server {
	t.Helper()
	var scrapes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		n := reqs + step*(scrapes.Add(1)-1)
		fmt.Fprintf(w, `# TYPE parallellives_serve_requests_total counter
parallellives_serve_requests_total{endpoint="/v1/asn/{n}"} %d
parallellives_serve_requests_total{endpoint="/v1/taxonomy"} 20
parallellives_serve_errors_total{endpoint="/v1/asn/{n}"} %d
parallellives_serve_generation %d
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="0.001"} 80
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="0.01"} 120
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="+Inf"} 120
`, n, errs, gen)
		if lag != "" {
			fmt.Fprintf(w, "parallellives_stream_ingest_lag_days %s\n", lag)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// routerStub serves a fixed /v1/shards document and nothing else: stat
// must not need the router's own /metrics.
func routerStub(t *testing.T, doc string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shards" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(doc))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// statTables runs the stat verb and returns each render's data rows,
// split into columns. Any error is fatal: no state of the fleet is one.
func statTables(t *testing.T, args ...string) [][][]string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), append([]string{"stat", "-timeout", "5s"}, args...), &stdout, &stderr); err != nil {
		t.Fatalf("stat %v: %v\n%s", args, err, stderr.String())
	}
	var tables [][][]string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "http://"): // target + clock: a new render
		case f[0] == "SHARD":
			if got := strings.Join(f, " "); got != "SHARD REPLICA UP BREAKER GEN REQS QPS P99(ms) ERRS LAG(d)" {
				t.Fatalf("header = %q", got)
			}
			tables = append(tables, nil)
		default:
			tables[len(tables)-1] = append(tables[len(tables)-1], f)
		}
	}
	return tables
}

// TestStatFleet: against a router, stat takes the fleet from /v1/shards
// and the numbers from each replica's own /metrics. Two ranges × two
// replicas, one of them dead and one answering more than MaxPeerBody:
// four rows in (shard, ordinal) order, the two unreadable ones UP 0 with
// "-" numbers — a row, not an error exit — BREAKER and GEN from the
// topology document, QPS "-" on the first poll and a rate on the second.
func TestStatFleet(t *testing.T) {
	r00 := replicaStub(t, 100, 50, 3, 7, "2")
	dead := replicaStub(t, 0, 0, 0, 7, "")
	dead.Close()
	r10 := replicaStub(t, 40, 0, 0, 7, "")
	flood := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := bytes.Repeat([]byte("# filler\n"), 8<<10)
		for sent := 0; sent <= router.MaxPeerBody; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(flood.Close)

	// The document's gen (3, 3, 4, 4) deliberately differs from the
	// replicas' own serve_generation (7): GEN is the router's view.
	rt := routerStub(t, fmt.Sprintf(`{"count":2,"generation":1,"shards":[
		{"index":0,"replicas":[{"url":%q,"ordinal":0,"breaker":"closed","gen":3},{"url":%q,"ordinal":1,"breaker":"open","gen":3}]},
		{"index":1,"replicas":[{"url":%q,"ordinal":0,"breaker":"half-open","gen":4},{"url":%q,"ordinal":1,"breaker":"closed","gen":4}]}]}`,
		r00.URL, dead.URL, r10.URL, flood.URL))

	tables := statTables(t, "-url", rt.URL, "-interval", "20ms", "-count", "2")
	if len(tables) != 2 {
		t.Fatalf("%d renders, want 2", len(tables))
	}
	want := [][]string{
		{"0", "0", "1", "closed", "3", "120", "-", "9.73", "3", "2"},
		{"0", "1", "0", "open", "3", "-", "-", "-", "-", "-"},
		{"1", "0", "1", "half-open", "4", "60", "-", "9.73", "0", "-"},
		{"1", "1", "0", "closed", "4", "-", "-", "-", "-", "-"},
	}
	if got := fmt.Sprint(tables[0]); got != fmt.Sprint(want) {
		t.Errorf("first poll:\n got %v\nwant %v", tables[0], want)
	}
	second := tables[1]
	if len(second) != 4 || second[0][5] != "170" || second[2][5] != "60" {
		t.Fatalf("second poll: %v", second)
	}
	if qps, err := strconv.ParseFloat(second[0][6], 64); err != nil || qps <= 0 {
		t.Errorf("replica 0/0 gained 50 requests between polls; QPS = %q", second[0][6])
	}
	if second[2][6] != "0.0" {
		t.Errorf("replica 1/0 gained none; QPS = %q, want 0.0", second[2][6])
	}
	for _, i := range []int{1, 3} {
		if second[i][2] != "0" || second[i][6] != "-" {
			t.Errorf("unreadable replica's second row: %v", second[i])
		}
	}
}

// TestStatBareServe: a process with no /v1/shards is a bare serve and
// renders as the one-row fleet, generation from its own exposition. It
// is asked for /v1/shards once, not once a poll: stat's own probe must
// not become the request rate it reports.
func TestStatBareServe(t *testing.T) {
	stub := replicaStub(t, 100, 0, 3, 7, "")
	var asked atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			asked.Add(1)
		}
		stub.Config.Handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tables := statTables(t, "-url", srv.URL+"/", "-interval", "10ms", "-count", "2")
	want := [][]string{{"-", "-", "1", "-", "7", "120", "-", "9.73", "3", "-"}}
	if len(tables) != 2 || fmt.Sprint(tables[0]) != fmt.Sprint(want) || tables[1][0][6] != "0.0" {
		t.Errorf("got %v, want %v and then the same row with QPS 0.0", tables, want)
	}
	if n := asked.Load(); n != 1 {
		t.Errorf("/v1/shards asked %d times over two polls, want 1", n)
	}

	// Neither a router nor a serve process: that is an error, not a row.
	srv.Close()
	if err := run(context.Background(), []string{"stat", "-url", srv.URL, "-timeout", "2s"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("stat against a closed port exited 0")
	}
}
