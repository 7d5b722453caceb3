package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
)

// TestMetricsExposition is the /metrics acceptance check: the scrape
// must be valid Prometheus text and must carry serve traffic,
// lifestore read and pipeline-build (health bridge) metrics together.
func TestMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap, img := fixtures(t)
	st, err := lifestore.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	st.Instrument(o.Registry)
	srv := New(st, Options{Obs: o})

	get(t, srv, fmt.Sprintf("/v1/asn/%s", snap.Lives[0].ASN)) // lifestore hit
	get(t, srv, "/v1/asn/4199999999")                         // lifestore miss
	get(t, srv, "/v1/taxonomy")
	get(t, srv, "/v1/taxonomy")

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type %q, want %q", ct, obs.ContentType)
	}
	body := rec.Body.String()

	// Every non-comment line must be `<series> <float>`. Label values
	// may themselves contain braces (endpoint patterns like /v1/asn/{n}),
	// so the label block match is lazy up to the final close brace.
	seriesRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics line without value: %q", line)
		}
		if !seriesRe.MatchString(line[:i]) {
			t.Errorf("malformed series name: %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
	}

	for _, want := range []string{
		`parallellives_serve_requests_total{endpoint="/v1/asn/{n}"} 2`,
		`parallellives_serve_requests_total{endpoint="/v1/taxonomy"} 2`,
		`parallellives_serve_errors_total{endpoint="/v1/asn/{n}"} 1`,
		`parallellives_serve_cache_hits 0`, // pinned series; nothing caches
		`parallellives_serve_cache_misses 0`,
		`parallellives_lifestore_lookups_total{outcome="hit"} 1`,
		`parallellives_lifestore_lookups_total{outcome="miss"} 1`,
		"parallellives_pipeline_health_days_processed",
		`parallellives_pipeline_health_mrt{field="records"}`,
		"parallellives_serve_request_seconds_bucket",
		"parallellives_lifestore_lookup_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, "parallellives_serve_cache_entries") {
		t.Error("exposition carries a cache entry gauge; the server keeps no response cache")
	}
}

// TestStagesEndpoint pins both sides of /v1/stages: 404 when the obs
// core carries no trace, the span tree as JSON when it does.
func TestStagesEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap, _ := fixtures(t)

	bare := New(lifestore.NewInMemory(snap), Options{})
	if code, _ := get(t, bare, "/v1/stages"); code != http.StatusNotFound {
		t.Errorf("stages without a trace: got %d, want 404", code)
	}

	o := obs.New()
	_, sp := obs.StartSpan(obs.WithTracer(t.Context(), o.Tracer), "pipeline.run")
	sp.SetAttr(obs.AttrOut, 7)
	sp.End()
	traced := New(lifestore.NewInMemory(snap), Options{Obs: o})
	code, body := get(t, traced, "/v1/stages")
	if code != http.StatusOK {
		t.Fatalf("stages with a trace: got %d, want 200", code)
	}
	var summaries []obs.SpanSummary
	if err := json.Unmarshal(body, &summaries); err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 1 || summaries[0].Name != "pipeline.run" || summaries[0].Attrs["out"] != 7 {
		t.Fatalf("unexpected stage summary: %+v", summaries)
	}
}

// TestHealthLatencyQuantiles checks the additive p50/p99 fields derive
// from the same histogram the request counters live on.
func TestHealthLatencyQuantiles(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap, _ := fixtures(t)
	srv := New(lifestore.NewInMemory(snap), Options{})
	for i := 0; i < 5; i++ {
		get(t, srv, "/v1/taxonomy")
	}
	_, body := get(t, srv, "/v1/health")
	var h struct {
		Endpoints map[string]struct {
			Requests       int64 `json:"requests"`
			TotalLatencyNs int64 `json:"totalLatencyNs"`
			LatencyP50Ns   int64 `json:"latencyP50Ns"`
			LatencyP99Ns   int64 `json:"latencyP99Ns"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	tax := h.Endpoints["/v1/taxonomy"]
	if tax.Requests != 5 {
		t.Fatalf("taxonomy requests = %d, want 5", tax.Requests)
	}
	if tax.TotalLatencyNs <= 0 || tax.LatencyP50Ns <= 0 || tax.LatencyP99Ns <= 0 {
		t.Errorf("latency fields not populated: %+v", tax)
	}
	if tax.LatencyP99Ns < tax.LatencyP50Ns {
		t.Errorf("p99 %dns < p50 %dns", tax.LatencyP99Ns, tax.LatencyP50Ns)
	}
}
