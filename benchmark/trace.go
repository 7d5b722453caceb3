package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The harness measures layers from outside: it records a span around
// each of its own calls into a layer's public functions. Spans stay in
// memory until the run ends. A nil *tracer records nothing, so the
// untraced and traced runs execute the same code.

type spanID int32

const noSpan spanID = -1

// span is one timed call. Start and End are nanoseconds since the
// tracer was created; Pass groups the spans of one pass (or one serve
// window), and Parent is the span that caused this one.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Pass   int32  `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex // restore may call a timed source from a worker goroutine
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (noSpan for a root). A child inherits
// its parent's pass; a root takes the pass given.
func (t *tracer) begin(name string, parent spanID, pass int) spanID {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans))
	p := int32(pass)
	if parent != noSpan {
		p = t.spans[parent].Pass
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: p, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured span (a serve request timed by its
// client goroutine).
func (t *tracer) add(name string, parent spanID, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: spanID(len(t.spans)), Parent: parent, Pass: t.spans[parent].Pass,
		Name: name, Start: s, End: s + int64(dur)})
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once and children are clipped to the parent, so a self time
// is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name within each pass, in seconds:
// result[name][pass].
func selfByName(spans []span) map[string]map[int32]float64 {
	self := selfTimes(spans)
	out := make(map[string]map[int32]float64)
	for i, s := range spans {
		if out[s.Name] == nil {
			out[s.Name] = make(map[int32]float64)
		}
		out[s.Name][s.Pass] += float64(self[i]) / 1e9
	}
	return out
}

// medianOver returns the median of a layer's per-pass self time over
// the given passes; a pass in which the layer never ran counts as 0.
func medianOver(byPass map[int32]float64, passes []int32) float64 {
	xs := make([]float64, 0, len(passes))
	for _, p := range passes {
		xs = append(xs, byPass[p])
	}
	return median(xs)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
