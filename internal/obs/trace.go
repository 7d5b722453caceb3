package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// Clock abstracts time for the tracer. The real clock is the default;
// tests and deterministic harnesses plug a FakeClock so span durations
// are reproducible.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced Clock.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts a fake clock at t.
func NewFakeClock(t time.Time) *FakeClock { return &FakeClock{t: t} }

// Now returns the fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the fake time forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Tracer records span trees. It is safe for concurrent use; spans are
// cheap (one small allocation each) and the tracer keeps every root it
// started, so long-running processes should scope tracers per run (the
// serving tier creates one per request).
type Tracer struct {
	clock Clock
	ids   IDSource // nil: spans carry no IDs (stage traces stay byte-stable)

	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns a tracer on the wall clock.
func NewTracer() *Tracer { return NewTracerWithClock(realClock{}) }

// NewTracerWithClock returns a tracer reading time from c.
func NewTracerWithClock(c Clock) *Tracer { return &Tracer{clock: c} }

// NewTracerWithIDs returns a tracer that stamps every span with an ID
// from ids and every root with a trace ID — the form the serving tier
// uses so request traces can be propagated and stitched across
// processes. A nil clock means the wall clock; a nil ids means the
// process-wide random source.
func NewTracerWithIDs(c Clock, ids IDSource) *Tracer {
	if c == nil {
		c = realClock{}
	}
	if ids == nil {
		ids = randomID
	}
	return &Tracer{clock: c, ids: ids}
}

// Roots returns the root spans started so far, in start order.
// Nil-safe, so a hand-built Obs with no tracer can still be queried.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Attr is one span attribute — an integer measure such as records
// parsed, records quarantined, or bytes read.
type Attr struct {
	Key   string
	Value int64
}

// Span is one timed operation. All methods are nil-safe: a nil *Span
// (what StartSpan returns without a tracer in context) no-ops, so
// instrumented code needs no conditionals.
type Span struct {
	tracer   *Tracer
	name     string
	start    time.Time
	id       string // empty on ID-less tracers
	traceID  string // root: own or inherited from a remote parent; child: copied from parent
	parentID string // remote parent span ID, set only on roots continuing an incoming trace

	mu       sync.Mutex
	end      time.Time
	ended    bool
	attrs    []Attr
	children []*Span
	remote   []SpanSummary // wire summaries stitched in from other processes
}

func (t *Tracer) startSpan(name string, parent *Span, remote *SpanContext) *Span {
	s := &Span{tracer: t, name: name, start: t.clock.Now()}
	if t.ids != nil {
		s.id = t.ids()
	}
	if parent == nil {
		if t.ids != nil {
			if remote != nil && remote.Valid() {
				s.traceID, s.parentID = remote.TraceID, remote.SpanID
			} else {
				s.traceID = t.ids() + t.ids()
			}
		}
		t.mu.Lock()
		t.roots = append(t.roots, s)
		t.mu.Unlock()
	} else {
		s.traceID = parent.traceID
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	}
	return s
}

type tracerKey struct{}
type spanKey struct{}

// WithTracer attaches a tracer to the context; subsequent StartSpan
// calls on that context record into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer attached to the context, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartSpan starts a span named name as a child of the context's current
// span (or as a root). Without a tracer in the context it returns the
// context unchanged and a nil span whose methods all no-op, so
// instrumentation costs nothing when observability is off.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var remote *SpanContext
	if parent == nil {
		if rp, ok := RemoteParentFrom(ctx); ok {
			remote = &rp
		}
	}
	s := t.startSpan(name, parent, remote)
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartSpanf is StartSpan with a formatted name. The formatting is
// skipped entirely when no tracer is attached, so instrumented hot paths
// cost one context lookup — not an fmt.Sprintf — with observability off.
func StartSpanf(ctx context.Context, format string, args ...any) (context.Context, *Span) {
	if TracerFrom(ctx) == nil {
		return ctx, nil
	}
	return StartSpan(ctx, fmt.Sprintf(format, args...))
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tracer.clock.Now()
	s.mu.Lock()
	if !s.ended {
		s.end = now
		s.ended = true
	}
	s.mu.Unlock()
}

// SetAttr sets (or replaces) an attribute.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// Name returns the span name. Nil-safe.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span ID (empty on ID-less tracers). Nil-safe.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// TraceID returns the trace ID the span belongs to (empty on ID-less
// tracers). Children inherit their root's trace ID. Nil-safe.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanContext returns the span's wire identity — what a caller injects
// as the traceparent of an outbound request so the next process joins
// this trace. Invalid (zero) on ID-less tracers. Nil-safe.
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.id}
}

// AttachRemote stitches a span summary received from another process
// (over the X-Parallellives-Span response header) under this span. The
// summary renders after the local children. Nil-safe.
func (s *Span) AttachRemote(sum SpanSummary) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.remote = append(s.remote, sum)
	s.mu.Unlock()
}

// Remote returns a copy of the stitched-in remote summaries. Nil-safe.
func (s *Span) Remote() []SpanSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanSummary(nil), s.remote...)
}

// Duration returns end−start for an ended span, 0 otherwise. Nil-safe.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the attributes in insertion order. Nil-safe.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns one attribute's value (0, false when absent). Nil-safe.
func (s *Span) Attr(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return 0, false
}

// Children returns a copy of the child spans in start order. Nil-safe.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Child returns the first child with the given name, or nil. Nil-safe.
func (s *Span) Child(name string) *Span {
	for _, c := range s.Children() {
		if c.name == name {
			return c
		}
	}
	return nil
}

// SpanSummary is the JSON form of a span tree. Attribute maps marshal
// with sorted keys, so the encoding is deterministic. The identity
// fields are only populated by ID-carrying tracers (request traces):
// TraceID and ParentID appear on roots, SpanID on every span — so the
// ID-less stage traces behind /v1/stages keep their historical bytes.
type SpanSummary struct {
	Name       string           `json:"name"`
	TraceID    string           `json:"traceId,omitempty"`
	SpanID     string           `json:"spanId,omitempty"`
	ParentID   string           `json:"parentId,omitempty"`
	DurationNs int64            `json:"durationNs"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []SpanSummary    `json:"children,omitempty"`
}

// Summarize converts a span tree into its JSON form. Nil-safe (returns
// the zero summary). Remote summaries stitched in with AttachRemote
// render after the local children and keep their own root identity, so
// a cross-process tree shows every process's trace ID (all equal when
// propagation worked).
func Summarize(s *Span) SpanSummary {
	return summarize(s, true)
}

func summarize(s *Span, root bool) SpanSummary {
	if s == nil {
		return SpanSummary{}
	}
	sum := SpanSummary{Name: s.Name(), SpanID: s.ID(), DurationNs: s.Duration().Nanoseconds()}
	if root {
		sum.TraceID = s.TraceID()
		sum.ParentID = s.parentID
	}
	if attrs := s.Attrs(); len(attrs) > 0 {
		sum.Attrs = make(map[string]int64, len(attrs))
		for _, a := range attrs {
			sum.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.Children() {
		sum.Children = append(sum.Children, summarize(c, false))
	}
	sum.Children = append(sum.Children, s.Remote()...)
	return sum
}

// Summary returns every root span's JSON form.
func (t *Tracer) Summary() []SpanSummary {
	roots := t.Roots()
	out := make([]SpanSummary, 0, len(roots))
	for _, r := range roots {
		out = append(out, Summarize(r))
	}
	return out
}

// Well-known attribute keys the stage table renders as columns. Stages
// set these for their record flow; anything else lands in the detail
// column.
const (
	AttrIn          = "in"          // records entering the stage
	AttrOut         = "out"         // records leaving the stage
	AttrDrops       = "drops"       // records discarded by sanitization
	AttrQuarantined = "quarantined" // records quarantined as damaged
)

// StageTable renders a span tree as an aligned per-stage table: one row
// per span with its duration, the well-known record-flow attributes as
// columns, and remaining attributes as key=value detail. Nil-safe
// (returns an empty string).
func StageTable(root *Span) string {
	if root == nil {
		return ""
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "STAGE\tDURATION\tIN\tOUT\tDROPS\tQUARANTINED\tDETAIL")
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		cell := func(key string) string {
			if v, ok := s.Attr(key); ok {
				return fmt.Sprintf("%d", v)
			}
			return "-"
		}
		var detail []string
		for _, a := range s.Attrs() {
			switch a.Key {
			case AttrIn, AttrOut, AttrDrops, AttrQuarantined:
			default:
				detail = append(detail, fmt.Sprintf("%s=%d", a.Key, a.Value))
			}
		}
		sort.Strings(detail)
		fmt.Fprintf(w, "%s%s\t%v\t%s\t%s\t%s\t%s\t%s\n",
			strings.Repeat("  ", depth), s.Name(),
			s.Duration().Round(time.Microsecond),
			cell(AttrIn), cell(AttrOut), cell(AttrDrops), cell(AttrQuarantined),
			strings.Join(detail, " "))
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	w.Flush()
	return b.String()
}
