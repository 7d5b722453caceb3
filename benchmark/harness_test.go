package main

import (
	"math"
	"testing"

	"parallellives/internal/asn"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// The values Python's statistics.quantiles(xs, n=4) gives.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if got, err := percentile(xs, 99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v, want 990", got, err)
	}
	if got, err := percentile(xs[:20], 50); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v, want 10", got, err)
	}
	if _, err := percentile(xs[:999], 99.5); err == nil {
		t.Error("p99.5 of 999 samples has 4 beyond it and was accepted")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples was accepted")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Pass: 1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Pass: 1, Name: "restore", Start: 10, End: 50},
		{ID: 2, Parent: 1, Pass: 1, Name: "source", Start: 10, End: 20},
		{ID: 3, Parent: 1, Pass: 1, Name: "source", Start: 15, End: 30}, // overlaps its sibling
		{ID: 4, Parent: 0, Pass: 1, Name: "scan", Start: 60, End: 130},  // outlives its parent
		{ID: 5, Parent: noSpan, Pass: 2, Name: "pass", Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 40, 40 - 20, 10, 15, 70, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
		if got[i] < 0 {
			t.Errorf("self time of span %d is negative", i)
		}
	}
	by := selfByName(spans)
	if got := by["source"][1]; !near(got, 25e-9) {
		t.Errorf("source self time in pass 1 = %v s, want 25e-9", got)
	}
	if got := medianOver(by["pass"], []int32{1, 2}); !near(got, 40e-9) {
		t.Errorf("median pass self time = %v s, want 40e-9", got)
	}
	if got := medianOver(by["scan"], []int32{2}); got != 0 {
		t.Errorf("a pass without the layer reads %v, want 0", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan, 1)
	tr.end(id)
	if id != noSpan || tr.count() != 0 {
		t.Errorf("nil tracer recorded a span: id %d, count %d", id, tr.count())
	}
	tr = newTracer()
	root := tr.begin("pass", noSpan, 7)
	child := tr.begin("layer", root, 0)
	tr.end(child)
	tr.end(root)
	if got := tr.spans[child]; got.Pass != 7 || got.Parent != root || got.End < got.Start {
		t.Errorf("child span = %+v, want pass 7 under span %d", got, root)
	}
}

func TestRequestSequence(t *testing.T) {
	population := make([]asn.ASN, 500)
	for i := range population {
		population[i] = asn.ASN(1000 + i)
	}
	sz := smokeSizing
	sequence := func(seed int64, client int) []request {
		g := newReqTable(seed, population, sz).client(seed, client)
		out := make([]request, 2000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	differ := func(a, b []request) int {
		n := 0
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	a := sequence(1, 0)
	if n := differ(a, sequence(1, 0)); n != 0 {
		t.Errorf("the same seed and client gave sequences differing in %d places", n)
	}
	if n := differ(a, sequence(2, 0)); n < len(a)/2 {
		t.Errorf("seeds 1 and 2 differ in only %d of %d requests", n, len(a))
	}
	if n := differ(a, sequence(1, 1)); n < len(a)/2 {
		t.Errorf("clients 0 and 1 differ in only %d of %d requests", n, len(a))
	}

	var perClass [numClasses]int
	working := make(map[asn.ASN]bool)
	for _, a := range newReqTable(1, population, sz).asns {
		working[a] = true
	}
	misses := 0
	for _, rq := range a {
		perClass[rq.class]++
		if rq.class == classASN && !working[rq.asn] {
			misses++
		}
	}
	if len(working) != sz.WorkingSet {
		t.Errorf("working set holds %d ASNs, want %d", len(working), sz.WorkingSet)
	}
	// 70/20/10 of 2000, and 3% of the ASN reads outside the working set.
	if perClass[classASN] < 1300 || perClass[classSeries] < 300 || perClass[classTaxonomy] < 120 {
		t.Errorf("class mix %v is far from 70/20/10", perClass)
	}
	if misses < 15 || misses > 90 {
		t.Errorf("%d of %d ASN reads miss the working set, want about 3%%", misses, perClass[classASN])
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 102}, []float64{101, 102, 103}, verdictOK},
		{"slower", lower, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictRegressed},
		{"faster", lower, []float64{100, 101, 102}, []float64{50, 51, 52}, verdictOK},
		{"less throughput", higher, []float64{100, 101, 102}, []float64{80, 81, 82}, verdictRegressed},
		{"more throughput", higher, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictOK},
		{"noisy and overlapping", lower, []float64{80, 100, 130}, []float64{90, 125, 140}, verdictUnresolved},
		{"noisy but every run worse", lower, []float64{80, 100, 130}, []float64{200, 260, 300}, verdictRegressed},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
