package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDFInts([]int{1, 2, 2, 3, 10})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.2}, {1.5, 0.2}, {2, 0.6}, {3, 0.8}, {9.99, 0.8}, {10, 1}, {100, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestEmptyCDF(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.N() != 0 {
		t.Error("empty CDF At should be 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Min()) || !math.IsNaN(c.Max()) {
		t.Error("empty CDF quantiles should be NaN")
	}
	if c.Points(10) != nil {
		t.Error("empty CDF Points should be nil")
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDFInts([]int{10, 20, 30, 40})
	if c.Quantile(0) != 10 || c.Quantile(1) != 40 {
		t.Error("extremes wrong")
	}
	if c.Quantile(0.25) != 10 || c.Quantile(0.5) != 20 || c.Quantile(0.75) != 30 {
		t.Errorf("nearest-rank quantiles wrong: %v %v %v",
			c.Quantile(0.25), c.Quantile(0.5), c.Quantile(0.75))
	}
	if c.Median() != 20 {
		t.Error("median wrong")
	}
}

func TestSummary(t *testing.T) {
	s := SummaryInts([]int{5, 1, 3, 2, 4})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.N != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v %v", s.Q1, s.Q3)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 0.5, 1, 1.5, 9.9, 10, 11, -5}, 0, 10, 10)
	if len(h) != 10 {
		t.Fatalf("bins = %d", len(h))
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 8 {
		t.Errorf("histogram loses samples: total = %d", total)
	}
	if h[0] != 3 { // 0, 0.5, -5 (clamped)
		t.Errorf("bin 0 = %d, want 3", h[0])
	}
	if h[9] != 3 { // 9.9, 10 (clamped), 11 (clamped)
		t.Errorf("bin 9 = %d, want 3", h[9])
	}
}

func TestPointsMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.NormFloat64() * 10
	}
	pts := NewCDF(samples).Points(50)
	if len(pts) != 50 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y || pts[i].X <= pts[i-1].X {
			t.Fatalf("CDF points not monotone at %d", i)
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Error("last point should be 1")
	}
}

func TestQuickQuantileWithinRangeAndMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.Float64() * 1000
		}
		c := NewCDF(samples)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < c.Min() || v > c.Max() || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCDFAtMatchesDirectCount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(r.Intn(20))
		}
		c := NewCDF(samples)
		x := float64(r.Intn(25)) - 2
		count := 0
		for _, v := range samples {
			if v <= x {
				count++
			}
		}
		return math.Abs(c.At(x)-float64(count)/float64(n)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortedInputUnmodified(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if sort.Float64sAreSorted(in) {
		t.Error("NewCDF must not sort the caller's slice")
	}
}
