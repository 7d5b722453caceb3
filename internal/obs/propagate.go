package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
)

// Trace-context wire format (DESIGN.md §13). Requests opt into
// cross-process tracing by sending a W3C-style traceparent header:
//
//	traceparent: 00-<32 hex trace-id>-<16 hex span-id>-01
//
// A process that serves a traced request returns its span tree as JSON
// in the X-Parallellives-Span response header, so the caller can stitch
// it under its own client span with Span.AttachRemote.
const (
	// TraceparentHeader is the inbound trace-context request header.
	TraceparentHeader = "traceparent"
	// SpanHeader is the response header carrying a SpanSummary JSON
	// document back to a traced caller.
	SpanHeader = "X-Parallellives-Span"
)

// IDSource yields one fresh 16-lower-hex-character identifier per call.
// Span IDs are one draw; trace IDs are two draws concatenated. Tests
// inject sequential sources for deterministic trees.
type IDSource func() string

// randomID is the process-wide default IDSource.
func randomID() string {
	v := rand.Uint64()
	for v == 0 { // the all-zero ID is invalid in the wire format
		v = rand.Uint64()
	}
	return fmt.Sprintf("%016x", v)
}

// SpanContext is the wire identity of one span: the trace it belongs to
// and its own ID. The zero value is invalid.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars, not all zero
	SpanID  string // 16 lowercase hex chars, not all zero
}

// Valid reports whether both IDs are well-formed and non-zero.
func (sc SpanContext) Valid() bool {
	return isHexID(sc.TraceID, 32) && isHexID(sc.SpanID, 16)
}

// Traceparent renders the header value for this context (version 00,
// sampled flag set). Call only on a valid context.
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a traceparent header value. Only version 00
// with well-formed, non-zero IDs is accepted; anything else reports
// false and the request is served untraced — a malformed header must
// never change the response.
func ParseTraceparent(v string) (SpanContext, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		// The common case — no trace context on the request — must not
		// allocate: this runs on every request the server answers.
		return SpanContext{}, false
	}
	parts := strings.Split(v, "-")
	if len(parts) != 4 || parts[0] != "00" || !isHexID(parts[3], 2) {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Bounds on the span tree a peer may hand back in SpanHeader. The trees
// this system produces are three levels and a dozen nodes; the transport
// alone would admit 10 MB of header, which the caller then copies into
// every traced response and exemplar.
const (
	MaxSpanHeader = 64 << 10
	MaxSpanDepth  = 32
	MaxSpanNodes  = 1024
)

// ParseSpanHeader parses a SpanHeader value received from another
// process. An absent, malformed or out-of-bounds value reports false and
// the caller drops the remote tree — a bad peer must not bloat or break
// the response it is stitched into.
func ParseSpanHeader(v string) (SpanSummary, bool) {
	var sum SpanSummary
	if v == "" || len(v) > MaxSpanHeader || json.Unmarshal([]byte(v), &sum) != nil {
		return SpanSummary{}, false
	}
	nodes := 0
	if !spanTreeWithin(&sum, 1, &nodes) {
		return SpanSummary{}, false
	}
	return sum, true
}

// spanTreeWithin reports whether the tree under sum, itself at the given
// depth, stays inside MaxSpanDepth and MaxSpanNodes.
func spanTreeWithin(sum *SpanSummary, depth int, nodes *int) bool {
	*nodes++
	if depth > MaxSpanDepth || *nodes > MaxSpanNodes {
		return false
	}
	for i := range sum.Children {
		if !spanTreeWithin(&sum.Children[i], depth+1, nodes) {
			return false
		}
	}
	return true
}

// isHexID reports whether s is exactly n lowercase hex chars and (for
// ID fields) not all zero. The 2-char flags field may be all zero.
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero || n == 2
}

type remoteParentKey struct{}

// WithRemoteParent marks the context as continuing an incoming trace:
// the next root span started on it joins sc's trace as a child of
// sc.SpanID (given an ID-carrying tracer). The mark also tells outbound
// clients (the router's scatter-gather fetch) to propagate trace
// context upstream — untraced requests never pay for propagation.
func WithRemoteParent(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteParentKey{}, sc)
}

// RemoteParentFrom returns the incoming trace context, if any.
func RemoteParentFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteParentKey{}).(SpanContext)
	return sc, ok
}
