package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/router"
)

// stubServer answers the serving tier's read surface well enough to
// classify: known ASNs 200, others 404, aggregates 200, and an
// optional shed mode (503 + Retry-After).
func stubServer(shed *atomic.Bool, delay time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if delay > 0 {
			time.Sleep(delay)
		}
		if shed != nil && shed.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/asn/"):
			if strings.HasSuffix(r.URL.Path, "/10") || strings.HasSuffix(r.URL.Path, "/20") {
				w.Write([]byte(`{"asn":10}`))
				return
			}
			http.Error(w, `{"error":"no"}`, http.StatusNotFound)
		default:
			w.Write([]byte(`{}`))
		}
	}))
}

func TestRunMixedWorkload(t *testing.T) {
	ts := stubServer(nil, 0)
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		Target:   ts.URL,
		Rate:     400,
		Duration: 500 * time.Millisecond,
		ASNs:     []asn.ASN{10, 20},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 200 {
		t.Fatalf("scheduled %d, want 200", res.Scheduled)
	}
	if res.Completed+res.Dropped != res.Scheduled {
		t.Fatalf("completed %d + dropped %d != scheduled %d", res.Completed, res.Dropped, res.Scheduled)
	}
	var classified int64
	for _, n := range res.Errors {
		classified += n
	}
	if classified != res.Completed {
		t.Fatalf("taxonomy sums to %d, completed %d", classified, res.Completed)
	}
	if res.Errors["ok"] == 0 {
		t.Fatalf("no successes in %+v", res.Errors)
	}
	if res.AchievedRPS <= 0 || res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.MaxMs < res.P999Ms {
		t.Fatalf("implausible stats: rps=%v p50=%v p99=%v p999=%v max=%v",
			res.AchievedRPS, res.P50Ms, res.P99Ms, res.P999Ms, res.MaxMs)
	}
}

func TestRunMissTraffic(t *testing.T) {
	ts := stubServer(nil, 0)
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		Target:    ts.URL,
		Rate:      200,
		Duration:  250 * time.Millisecond,
		Mix:       Mix{ASN: 1},
		ASNs:      []asn.ASN{10},
		MissRatio: 1, // everything uniform-random → almost surely 404
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors["not_found"] == 0 {
		t.Fatalf("uniform-random ASN traffic produced no 404s: %+v", res.Errors)
	}
}

func TestRunClassifiesSheds(t *testing.T) {
	var shed atomic.Bool
	shed.Store(true)
	ts := stubServer(&shed, 0)
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		Target:   ts.URL,
		Rate:     200,
		Duration: 250 * time.Millisecond,
		Mix:      Mix{Taxonomy: 1},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors["shed"] != res.Completed || res.Completed == 0 {
		t.Fatalf("want every completion classified shed, got %+v of %d", res.Errors, res.Completed)
	}
}

// TestRunOpenLoopDrops proves the open-loop property: a slow server
// with a tiny client cap drops arrivals instead of stretching the
// schedule.
func TestRunOpenLoopDrops(t *testing.T) {
	ts := stubServer(nil, 50*time.Millisecond)
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		Target:      ts.URL,
		Rate:        200,
		Duration:    300 * time.Millisecond,
		MaxInFlight: 2,
		Mix:         Mix{Taxonomy: 1},
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatalf("slow server with cap 2 at 200 rps dropped nothing: %+v", res)
	}
	// Latency is measured from the schedule, so queueing shows up.
	if res.P50Ms < 40 {
		t.Fatalf("p50 %.1fms below the server's 50ms floor", res.P50Ms)
	}
}

// TestRunCountsFailoversAndHedgeWins drives the generator against a
// stub that stamps the router's failover/hedge marker headers on some
// responses, and checks both land in the result as first-class numbers
// — the counters a chaos drill asserts on.
func TestRunCountsFailoversAndHedgeWins(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := served.Add(1)
		if n%3 == 0 {
			w.Header().Set(failoverHeader, "2") // two hops before this answer
		}
		if n%5 == 0 {
			w.Header().Set(hedgeHeader, "win")
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		Target:   ts.URL,
		Rate:     200,
		Duration: 250 * time.Millisecond,
		Mix:      Mix{Taxonomy: 1},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Errors["ok"] != res.Completed {
		t.Fatalf("stub traffic misclassified: %+v of %d", res.Errors, res.Completed)
	}
	n := served.Load()
	wantFailovers := (n / 3) * 2
	wantHedgeWins := n / 5
	if res.Failovers != wantFailovers || res.HedgeWins != wantHedgeWins {
		t.Fatalf("counted %d failovers / %d hedge wins over %d responses, want %d / %d",
			res.Failovers, res.HedgeWins, n, wantFailovers, wantHedgeWins)
	}
}

// TestHeaderNamesMatchRouter pins the header constants to the router's
// exported ones — the generator parses by local copies (no import in
// production code), so drift would silently zero the counters.
func TestHeaderNamesMatchRouter(t *testing.T) {
	if failoverHeader != router.FailoverHeader {
		t.Fatalf("failoverHeader %q != router.FailoverHeader %q", failoverHeader, router.FailoverHeader)
	}
	if hedgeHeader != router.HedgeHeader {
		t.Fatalf("hedgeHeader %q != router.HedgeHeader %q", hedgeHeader, router.HedgeHeader)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Options{Rate: 1, Duration: time.Second}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := Run(context.Background(), Options{Target: "x", Duration: time.Second}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(context.Background(), Options{Target: "x", Rate: 1, Duration: time.Second, Mix: Mix{ASN: 1}}); err == nil {
		t.Fatal("ASN mix with no population accepted")
	}
}
