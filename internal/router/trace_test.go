package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"parallellives/internal/obs"
)

// seqIDs is a deterministic span/trace ID source for tests. Scatter
// fetches start spans concurrently, so the counter must be atomic.
func seqIDs() obs.IDSource {
	var n atomic.Int64
	return func() string {
		return fmt.Sprintf("%016x", n.Add(1))
	}
}

// findChild returns the first child (depth 1) whose name has the prefix.
func findChild(sum obs.SpanSummary, prefix string) (obs.SpanSummary, bool) {
	for _, c := range sum.Children {
		if strings.HasPrefix(c.Name, prefix) {
			return c, true
		}
	}
	return obs.SpanSummary{}, false
}

// TestStitchedTraceAcrossShards is the acceptance pin for trace
// propagation: one traced request through the router over four shard
// processes must come back as a single span tree — the router's root,
// its shard-call child, and the shard's own serve span stitched
// underneath, all under the caller's trace ID.
func TestStitchedTraceAcrossShards(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 4)
	rt := newTestRouter(t, set, Options{SpanIDs: seqIDs()})
	parent := obs.SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}

	rec := get(rt, "/v1/asn/64496", map[string]string{obs.TraceparentHeader: parent.Traceparent()})
	if rec.Code != 200 {
		t.Fatalf("traced request: status %d: %s", rec.Code, rec.Body)
	}
	hdr := rec.Header().Get(obs.SpanHeader)
	if hdr == "" {
		t.Fatalf("traced response missing %s header", obs.SpanHeader)
	}
	var root obs.SpanSummary
	if err := json.Unmarshal([]byte(hdr), &root); err != nil {
		t.Fatalf("span header is not SpanSummary JSON: %v\n%s", err, hdr)
	}

	// Layer 1: the router's root span joined the caller's trace.
	if root.TraceID != parent.TraceID || root.ParentID != parent.SpanID {
		t.Fatalf("root joined (%s, parent %s), want (%s, %s)", root.TraceID, root.ParentID, parent.TraceID, parent.SpanID)
	}
	if root.Name != "route /v1/asn/{n}" || root.SpanID == "" {
		t.Fatalf("root span = %+v", root)
	}

	// Layer 2: the upstream call to the owning shard is a child span.
	shardSpan, ok := findChild(root, "shard[")
	if !ok {
		t.Fatalf("no shard-call child span in %s", hdr)
	}
	if !strings.Contains(shardSpan.Name, "GET /v1/asn/64496") || shardSpan.SpanID == "" {
		t.Fatalf("shard span = %+v", shardSpan)
	}
	if shardSpan.Attrs["status"] != 200 {
		t.Errorf("shard span status attr = %d", shardSpan.Attrs["status"])
	}

	// Layer 3: the shard process's own serve span, stitched back across
	// the process boundary, parented on the shard-call span.
	serveSpan, ok := findChild(shardSpan, "serve /v1/asn/{n}")
	if !ok {
		t.Fatalf("shard span carries no stitched serve span: %+v", shardSpan)
	}
	if serveSpan.TraceID != parent.TraceID {
		t.Errorf("serve span trace = %q, want %q", serveSpan.TraceID, parent.TraceID)
	}
	if serveSpan.ParentID != shardSpan.SpanID {
		t.Errorf("serve span parent = %q, want the shard-call span %q", serveSpan.ParentID, shardSpan.SpanID)
	}
	if _, ok := findChild(serveSpan, "lifestore.lookup"); !ok {
		t.Errorf("stitched serve span lost its local children: %+v", serveSpan)
	}

	// An untraced request must stay header-free (additivity; the
	// byte-equivalence against a single server is TestShardedEquivalence).
	rec = get(rt, "/v1/asn/64496", nil)
	if h := rec.Header().Get(obs.SpanHeader); h != "" {
		t.Errorf("untraced response grew a span header: %q", h)
	}
}

// TestStitchedScatterTrace pins the fan-out shape: a traced aggregate
// request shows one shard-call child per shard, each carrying that
// shard's stitched serve span.
func TestStitchedScatterTrace(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 4)
	rt := newTestRouter(t, set, Options{SpanIDs: seqIDs()})
	parent := obs.SpanContext{TraceID: strings.Repeat("12", 16), SpanID: strings.Repeat("34", 8)}

	rec := get(rt, "/v1/taxonomy", map[string]string{obs.TraceparentHeader: parent.Traceparent()})
	if rec.Code != 200 {
		t.Fatalf("traced scatter: status %d", rec.Code)
	}
	var root obs.SpanSummary
	if err := json.Unmarshal([]byte(rec.Header().Get(obs.SpanHeader)), &root); err != nil {
		t.Fatal(err)
	}
	shardCalls := 0
	for _, c := range root.Children {
		if !strings.HasPrefix(c.Name, "shard[") {
			continue
		}
		shardCalls++
		if _, ok := findChild(c, "serve /v1/taxonomy"); !ok {
			t.Errorf("shard call %q has no stitched serve span", c.Name)
		}
	}
	if shardCalls != 4 {
		t.Errorf("traced scatter shows %d shard calls, want 4", shardCalls)
	}
}

// TestRouterSlowAggregation pins the fleet /v1/debug/slow: the router
// answers with its own exemplar ring plus one row per shard, and a dark
// shard degrades to an error row instead of failing the endpoint.
func TestRouterSlowAggregation(t *testing.T) {
	set := startShards(t, fixtureSnapshot(1), 2)
	rt := newTestRouter(t, set, Options{})

	for i := 0; i < 3; i++ {
		if rec := get(rt, "/v1/asn/64496", nil); rec.Code != 200 {
			t.Fatalf("warmup: status %d", rec.Code)
		}
	}
	rec := get(rt, "/v1/debug/slow", nil)
	if rec.Code != 200 {
		t.Fatalf("/v1/debug/slow: status %d", rec.Code)
	}
	var doc struct {
		Router obs.ExemplarSnapshot `json:"router"`
		Shards []shardSlowJSON      `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("slow body: %v", err)
	}
	if doc.Router.Seen < 3 || len(doc.Router.Slowest) == 0 {
		t.Fatalf("router ring = %+v", doc.Router)
	}
	if doc.Router.Slowest[0].Trace.Name == "" {
		t.Errorf("router exemplar has no span tree")
	}
	if len(doc.Shards) != 2 {
		t.Fatalf("shard rows = %d, want 2", len(doc.Shards))
	}
	for _, row := range doc.Shards {
		if row.Error != "" {
			t.Errorf("shard %d errored: %s", row.Shard, row.Error)
			continue
		}
		var snap obs.ExemplarSnapshot
		if err := json.Unmarshal(row.Exemplars, &snap); err != nil {
			t.Errorf("shard %d exemplars: %v", row.Shard, err)
		}
	}

	// Kill one shard: its row degrades, the endpoint stays 200.
	set.flakies[1].broken.Store(true)
	rec = get(rt, "/v1/debug/slow", nil)
	if rec.Code != 200 {
		t.Fatalf("/v1/debug/slow with a dark shard: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Shards[1].Error == "" {
		t.Errorf("dark shard row reports no error: %+v", doc.Shards[1])
	}
}

// nestedSpans is a span-summary JSON chain `depth` levels deep.
func nestedSpans(depth int) string {
	return strings.Repeat(`{"name":"s","durationNs":1,"children":[`, depth-1) +
		`{"name":"s","durationNs":1}` + strings.Repeat("]}", depth-1)
}

// wideSpans is a root with n-1 leaf children: n nodes in all.
func wideSpans(n int) string {
	leaves := strings.TrimSuffix(strings.Repeat(`{"name":"s","durationNs":1},`, n-1), ",")
	return `{"name":"root","durationNs":1,"children":[` + leaves + `]}`
}

// TestHostileSpanHeaderDropped pins the bounds on the one piece of
// shard-authored content the router interprets beyond /v1/shard
// identity: a span header past the size, depth or node limit is dropped
// — the response is still served, the caller's tree just lacks the
// remote subtree — and one exactly at a limit is kept.
func TestHostileSpanHeaderDropped(t *testing.T) {
	pad := func(n int) string { // a valid summary of exactly n bytes
		const frame = `{"name":"","durationNs":1}`
		return `{"name":"` + strings.Repeat("x", n-len(frame)) + `","durationNs":1}`
	}
	for _, tc := range []struct {
		name, header string
		kept         bool
	}{
		{"at the size limit", pad(obs.MaxSpanHeader), true},
		{"past the size limit", pad(obs.MaxSpanHeader + 1), false},
		{"at the depth limit", nestedSpans(obs.MaxSpanDepth), true},
		{"past the depth limit", nestedSpans(obs.MaxSpanDepth + 1), false},
		{"at the node limit", wideSpans(obs.MaxSpanNodes), true},
		{"past the node limit", wideSpans(obs.MaxSpanNodes + 1), false},
		{"not JSON", `{"name":`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set(obs.SpanHeader, tc.header)
				w.Write([]byte("body"))
			}))
			defer shard.Close()
			sc := testClient(t, shard.URL)

			parent := obs.SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
			ctx := obs.WithTracer(context.Background(), obs.NewTracerWithIDs(nil, seqIDs()))
			ctx, root := obs.StartSpan(obs.WithRemoteParent(ctx, parent), "route")
			u, err := sc.fetch(ctx, http.MethodGet, "/x", "")
			root.End()
			if err != nil || string(u.body) != "body" {
				t.Fatalf("fetch = %v, %v; the response must be served whatever the span header holds", u, err)
			}
			call, ok := findChild(obs.Summarize(root), "shard[")
			if !ok {
				t.Fatal("no shard-call span")
			}
			if kept := len(call.Children) == 1; kept != tc.kept {
				t.Errorf("remote tree attached = %v, want %v", kept, tc.kept)
			}
		})
	}
}
