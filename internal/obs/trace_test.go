package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanTreeDeterministicDurations drives the tracer off a fake clock
// and pins the exact span tree: names, parent/child structure, durations
// and attributes are all reproducible, which is what lets the
// deterministic worldsim keep stage reports stable across runs.
func TestSpanTreeDeterministicDurations(t *testing.T) {
	clk := NewFakeClock(time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC))
	tr := NewTracerWithClock(clk)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "pipeline.run")
	clk.Advance(10 * time.Millisecond)

	_, restore := StartSpan(ctx, "restore")
	restore.SetAttr(AttrIn, 100)
	restore.SetAttr(AttrOut, 90)
	restore.SetAttr(AttrOut, 95)
	clk.Advance(250 * time.Millisecond)
	restore.End()

	childCtx, scan := StartSpan(ctx, "bgpscan")
	scan.SetAttr(AttrQuarantined, 7)
	clk.Advance(100 * time.Millisecond)
	_, day := StartSpan(childCtx, "day")
	clk.Advance(50 * time.Millisecond)
	day.End()
	scan.End()

	clk.Advance(5 * time.Millisecond)
	root.End()

	if got, want := root.Duration(), 415*time.Millisecond; got != want {
		t.Fatalf("root duration = %v, want %v", got, want)
	}
	if got, want := restore.Duration(), 250*time.Millisecond; got != want {
		t.Fatalf("restore duration = %v, want %v", got, want)
	}
	if got, want := scan.Duration(), 150*time.Millisecond; got != want {
		t.Fatalf("bgpscan duration = %v, want %v", got, want)
	}
	if got, want := day.Duration(), 50*time.Millisecond; got != want {
		t.Fatalf("day duration = %v, want %v", got, want)
	}
	if out, _ := restore.Attr(AttrOut); out != 95 {
		t.Fatalf("restore out attr = %d, want 95 (SetAttr overwrites)", out)
	}

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "restore" || kids[1].Name() != "bgpscan" {
		t.Fatalf("unexpected children: %v", kids)
	}
	if root.Child("bgpscan") != kids[1] {
		t.Fatal("Child lookup by name failed")
	}
	if grand := kids[1].Children(); len(grand) != 1 || grand[0].Name() != "day" {
		t.Fatalf("unexpected grandchildren: %v", grand)
	}

	// The JSON summary is stable (maps marshal with sorted keys).
	b1, err := json.Marshal(tr.Summary())
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(tr.Summary())
	if string(b1) != string(b2) {
		t.Fatal("span summary JSON not deterministic")
	}
	if !strings.Contains(string(b1), `"durationNs":250000000`) {
		t.Fatalf("summary lost the fake-clock duration: %s", b1)
	}

	table := StageTable(root)
	for _, want := range []string{"pipeline.run", "  restore", "  bgpscan", "    day", "250ms", "100", "95", "7"} {
		if !strings.Contains(table, want) {
			t.Fatalf("stage table missing %q:\n%s", want, table)
		}
	}
}

// TestNilSpanSafety proves instrumented code runs untraced for free: no
// tracer in context ⇒ nil spans, and every method no-ops.
func TestNilSpanSafety(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "ghost")
	if span != nil {
		t.Fatal("StartSpan without a tracer should return a nil span")
	}
	if TracerFrom(ctx) != nil {
		t.Fatal("context should carry no tracer")
	}
	span.SetAttr("x", 1)
	span.End()
	if span.Duration() != 0 || span.Name() != "" || span.Children() != nil {
		t.Fatal("nil span accessors should return zero values")
	}
	if _, ok := span.Attr("x"); ok {
		t.Fatal("nil span should hold no attrs")
	}
	if StageTable(nil) != "" {
		t.Fatal("StageTable(nil) should be empty")
	}
	if s := Summarize(nil); s.Name != "" {
		t.Fatal("Summarize(nil) should be zero")
	}
}

func TestSpanDoubleEndKeepsFirst(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tr := NewTracerWithClock(clk)
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "once")
	clk.Advance(time.Second)
	s.End()
	clk.Advance(time.Hour)
	s.End()
	if got := s.Duration(); got != time.Second {
		t.Fatalf("duration after double End = %v, want 1s", got)
	}
}

func TestUnendedSpanDurationZero(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "open")
	if s.Duration() != 0 {
		t.Fatal("unended span should report zero duration")
	}
	if len(tr.Roots()) != 1 {
		t.Fatal("root span not recorded")
	}
}
