package router

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parallellives/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeShard runs a hand-scripted shard: a real /v1/shard handshake plus
// a fixed /metrics exposition. Everything the federator derives from it
// is therefore known in advance, which is what makes the rollup
// golden-testable.
func fakeShard(t *testing.T, index, count int, lo, hi uint32, gen int64, metrics string) (*httptest.Server, *flaky) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shard", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"sharded":true,"shard":{"index":%d,"count":%d,"lo":%d,"hi":%d,"sum":"feedface"},"generation":%d,"asnCount":5}`,
			index, count, lo, hi, gen)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		w.Write([]byte(metrics))
	})
	f := &flaky{h: mux}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return ts, f
}

const fakeShardMetrics0 = `# HELP parallellives_serve_requests_total API requests.
# TYPE parallellives_serve_requests_total counter
parallellives_serve_requests_total{endpoint="/v1/asn/{n}"} 100
parallellives_serve_requests_total{endpoint="/v1/taxonomy"} 20
parallellives_serve_errors_total{endpoint="/v1/asn/{n}"} 3
parallellives_serve_inflight 2
parallellives_stream_ingest_lag_days 2
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="0.001"} 80
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="0.01"} 118
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="+Inf"} 120
parallellives_serve_request_seconds_sum{endpoint="/v1/asn/{n}"} 0.5
parallellives_serve_request_seconds_count{endpoint="/v1/asn/{n}"} 120
`

const fakeShardMetrics1 = `parallellives_serve_requests_total{endpoint="/v1/asn/{n}"} 40
parallellives_serve_errors_total{endpoint="/v1/asn/{n}"} 0
parallellives_serve_inflight 0
parallellives_stream_ingest_lag_days 5
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="0.001"} 10
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="0.01"} 40
parallellives_serve_request_seconds_bucket{endpoint="/v1/asn/{n}",le="+Inf"} 40
`

// TestFederatedMetricsGolden pins the federation rollup byte-for-byte:
// two healthy fake shards plus one that stops answering mid-flight must
// produce exactly the fleet series in testdata/federated_metrics.golden
// — (shard, replica) labels, the generation-skew and lag-max gauges,
// the scrape-failure counter, and nothing of unbounded cardinality.
func TestFederatedMetricsGolden(t *testing.T) {
	s0, _ := fakeShard(t, 0, 3, 0, 1000, 3, fakeShardMetrics0)
	s1, _ := fakeShard(t, 1, 3, 1001, 2000, 3, fakeShardMetrics1)
	s2, f2 := fakeShard(t, 2, 3, 2001, maxASN, 1, "")

	rt, err := New(context.Background(), Options{
		Shards:           []string{s0.URL, s1.URL, s2.URL},
		ScrapeInterval:   time.Hour, // enables federation; the test scrapes by hand
		HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.fed.clock = obs.NewFakeClock(time.Unix(1700000000, 0))

	f2.broken.Store(true) // shard 2 goes dark after the handshake
	rt.ScrapeFleet(context.Background())

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, rt.front.Obs.Registry); err != nil {
		t.Fatal(err)
	}
	var fleet []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "parallellives_fleet") {
			fleet = append(fleet, line)
		}
	}
	got := strings.Join(fleet, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "federated_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("federated metrics drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Spot-check the derived semantics behind the bytes, so a legitimate
	// -update can't silently bless nonsense.
	samples, err := obs.ParseExposition([]byte(got))
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{MetricFleetRequests, map[string]string{"shard": "0"}, 120},
		{MetricFleetErrors, map[string]string{"shard": "0"}, 3},
		{MetricFleetRequests, map[string]string{"shard": "1"}, 40},
		{MetricFleetUp, map[string]string{"shard": "1"}, 1},
		{MetricFleetUp, map[string]string{"shard": "2"}, 0},
		{MetricFleetGen, map[string]string{"shard": "2"}, 1},
		{MetricFleetScrapes, map[string]string{"shard": "2", "outcome": "error"}, 1},
		{MetricFleetScrapes, map[string]string{"shard": "0", "outcome": "ok"}, 1},
		{MetricFleetLag, map[string]string{"shard": "1"}, 5},
		{MetricFleetGenSkew, nil, 2},
		{MetricFleetLagMax, nil, 5},
		{MetricFleetBreakersOpen, nil, 0},
		{MetricFleetShards, nil, 3},
		{MetricFleetReplicas, nil, 3},
	}
	for _, c := range checks {
		if v, ok := samples.Value(c.name, c.match); !ok || v != c.want {
			t.Errorf("%s%v = %v (present=%v), want %v", c.name, c.match, v, ok, c.want)
		}
	}
	// The dark shard must not pretend it was ever scraped.
	if _, ok := samples.Value(MetricFleetLastUnix, map[string]string{"shard": "2"}); ok {
		t.Errorf("stale shard has a last-scrape timestamp")
	}
	if v, ok := samples.Value(MetricFleetLastUnix, map[string]string{"shard": "0"}); !ok || v != 1700000000 {
		t.Errorf("shard 0 last scrape = %v, %v", v, ok)
	}
}

// TestFederationDisabled pins that a negative scrape interval keeps the
// fleet families off the router's exposition entirely — disabled means
// zero cardinality, not zeroed series.
func TestFederationDisabled(t *testing.T) {
	s0, _ := fakeShard(t, 0, 1, 0, maxASN, 1, "")
	rt, err := New(context.Background(), Options{
		Shards:           []string{s0.URL},
		ScrapeInterval:   -1,
		HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.ScrapeFleet(context.Background()) // must no-op
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, rt.front.Obs.Registry); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "parallellives_fleet") {
		t.Errorf("disabled federation still exports fleet series")
	}
}
