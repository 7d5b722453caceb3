package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// seqIDs returns a deterministic IDSource: 0000000000000001,
// 0000000000000002, ...
func seqIDs() IDSource {
	n := 0
	return func() string {
		n++
		return fmt.Sprintf("%016x", n)
	}
}

func TestParseTraceparent(t *testing.T) {
	tid := strings.Repeat("ab", 16)
	sid := strings.Repeat("cd", 8)
	cases := []struct {
		in string
		ok bool
	}{
		{"00-" + tid + "-" + sid + "-01", true},
		{"  00-" + tid + "-" + sid + "-00  ", true},                  // unsampled flag still parses
		{"01-" + tid + "-" + sid + "-01", false},                     // unknown version
		{"00-" + tid + "-" + sid, false},                             // missing flags
		{"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", false}, // zero trace ID
		{"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", false}, // zero span ID
		{"00-" + strings.ToUpper(tid) + "-" + sid + "-01", false},    // uppercase hex
		{"00-" + tid[:30] + "-" + sid + "-01", false},                // short trace ID
		{"00-" + tid + "-" + sid + "-zz", false},                     // bad flags
		{"", false},
		{"garbage", false},
	}
	for _, c := range cases {
		sc, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
		}
		if ok && (sc.TraceID != tid || sc.SpanID != sid) {
			t.Errorf("ParseTraceparent(%q) = %+v", c.in, sc)
		}
	}
	// Round trip.
	sc := SpanContext{TraceID: tid, SpanID: sid}
	got, ok := ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("round trip = %+v, %v", got, ok)
	}
}

func TestTracerSpanIDs(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	tr := NewTracerWithIDs(clock, seqIDs())
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	clock.Advance(time.Millisecond)
	child.End()
	root.End()

	if root.ID() != "0000000000000001" {
		t.Fatalf("root span ID = %q", root.ID())
	}
	wantTrace := "00000000000000020000000000000003"
	if root.TraceID() != wantTrace {
		t.Fatalf("root trace ID = %q", root.TraceID())
	}
	if child.TraceID() != wantTrace {
		t.Fatalf("child must inherit the trace ID, got %q", child.TraceID())
	}
	if child.ID() == root.ID() {
		t.Fatalf("child reused the root's span ID")
	}
	sum := Summarize(root)
	if sum.TraceID != wantTrace || sum.SpanID != root.ID() || sum.ParentID != "" {
		t.Fatalf("root summary identity = %+v", sum)
	}
	if sum.Children[0].TraceID != "" {
		t.Fatalf("child summaries must omit the trace ID, got %q", sum.Children[0].TraceID)
	}
	if sum.Children[0].SpanID != child.ID() {
		t.Fatalf("child summary span ID = %q", sum.Children[0].SpanID)
	}
}

func TestRemoteParentContinuation(t *testing.T) {
	tr := NewTracerWithIDs(NewFakeClock(time.Unix(0, 0)), seqIDs())
	parent := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	ctx := WithRemoteParent(WithTracer(context.Background(), tr), parent)
	_, root := StartSpan(ctx, "serve asn")
	root.End()

	if root.TraceID() != parent.TraceID {
		t.Fatalf("root must join the remote trace, got %q", root.TraceID())
	}
	sum := Summarize(root)
	if sum.ParentID != parent.SpanID {
		t.Fatalf("root summary parent = %q, want %q", sum.ParentID, parent.SpanID)
	}
	if sum.SpanID == parent.SpanID {
		t.Fatalf("continued root must mint its own span ID")
	}
}

func TestAttachRemote(t *testing.T) {
	tr := NewTracerWithIDs(NewFakeClock(time.Unix(0, 0)), seqIDs())
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "route asn")
	_, local := StartSpan(ctx, "shard[0]")
	local.End()
	remote := SpanSummary{
		Name: "serve asn", TraceID: root.TraceID(),
		SpanID: strings.Repeat("ee", 8), ParentID: local.ID(), DurationNs: 42,
	}
	local.AttachRemote(remote)
	root.End()

	sum := Summarize(root)
	if len(sum.Children) != 1 || len(sum.Children[0].Children) != 1 {
		t.Fatalf("tree shape = %+v", sum)
	}
	got := sum.Children[0].Children[0]
	if got.Name != "serve asn" || got.TraceID != root.TraceID() || got.ParentID != local.ID() {
		t.Fatalf("stitched remote = %+v", got)
	}
}

// TestIDLessSummaryStable pins that tracers without an IDSource (the
// pipeline stage tracer behind /v1/stages) emit exactly the historical
// JSON shape — no identity keys.
func TestIDLessSummaryStable(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	tr := NewTracerWithClock(clock)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "stage")
	_, child := StartSpan(ctx, "inner")
	clock.Advance(2 * time.Millisecond)
	child.End()
	root.End()
	root.SetAttr("in", 7)

	b, err := json.Marshal(Summarize(root))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"stage","durationNs":2000000,"attrs":{"in":7},"children":[{"name":"inner","durationNs":2000000}]}`
	if string(b) != want {
		t.Fatalf("ID-less summary changed:\n got %s\nwant %s", b, want)
	}
}

func TestRandomIDsWellFormed(t *testing.T) {
	tr := NewTracerWithIDs(nil, nil)
	ctx := WithTracer(context.Background(), tr)
	_, root := StartSpan(ctx, "r")
	root.End()
	if !root.SpanContext().Valid() {
		t.Fatalf("random span context invalid: %+v", root.SpanContext())
	}
	if _, ok := ParseTraceparent(root.SpanContext().Traceparent()); !ok {
		t.Fatalf("random traceparent does not parse: %q", root.SpanContext().Traceparent())
	}
}

// FuzzSpanHeader: whatever a peer puts in X-Parallellives-Span, parsing
// it never panics and never yields a tree past the bounds.
func FuzzSpanHeader(f *testing.F) {
	f.Add(`{"name":"serve /v1/asn/{n}","traceId":"ab","spanId":"cd","durationNs":5,"attrs":{"status":200},"children":[{"name":"lifestore.lookup","durationNs":1}]}`)
	f.Add(strings.Repeat(`{"children":[`, MaxSpanDepth) + `{}` + strings.Repeat(`]}`, MaxSpanDepth))
	f.Add(`{"children":[` + strings.Repeat(`{},`, MaxSpanNodes) + `{}]}`)
	f.Add(`{"children":[null,{"children":[[]]}]}`)
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		sum, ok := ParseSpanHeader(h)
		if !ok {
			if sum.Name != "" || sum.Children != nil {
				t.Fatalf("a dropped header still returned a tree: %+v", sum)
			}
			return
		}
		if len(h) > MaxSpanHeader {
			t.Fatalf("accepted a %d-byte header", len(h))
		}
		var measure func(s *SpanSummary, depth int) (nodes, deepest int)
		measure = func(s *SpanSummary, depth int) (int, int) {
			nodes, deepest := 1, depth
			for i := range s.Children {
				n, d := measure(&s.Children[i], depth+1)
				nodes += n
				deepest = max(deepest, d)
			}
			return nodes, deepest
		}
		if nodes, depth := measure(&sum, 1); nodes > MaxSpanNodes || depth > MaxSpanDepth {
			t.Fatalf("accepted a tree of %d nodes, depth %d", nodes, depth)
		}
	})
}
