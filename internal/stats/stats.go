// Package stats provides the small set of descriptive statistics the
// paper's figures are built from: empirical CDFs, quantiles, histograms
// and boxplot five-number summaries. It deliberately implements only what
// the report layer needs, with deterministic results for fixed inputs.
package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over float64
// samples. It is immutable once built.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// NewCDFInts builds a CDF from integer samples.
func NewCDFInts(samples []int) *CDF {
	s := make([]float64, len(samples))
	for i, v := range samples {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using the nearest-rank
// method; q=0 yields the minimum and q=1 the maximum.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return c.sorted[rank-1]
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min and Max return the extremes; NaN when empty.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample; NaN when empty.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Points samples the CDF at n evenly spaced x positions across
// [Min, Max], returning (x, F(x)) pairs — the series a plotted CDF line
// is made of. n must be >= 2 when the CDF is non-empty.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n < 2 {
		return nil
	}
	lo, hi := c.Min(), c.Max()
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		out[i] = Point{X: x, Y: c.At(x)}
	}
	return out
}

// Point is one (x, y) sample of a plotted series.
type Point struct{ X, Y float64 }

// FiveNum is the boxplot five-number summary.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// Summary computes the five-number summary of samples.
func Summary(samples []float64) FiveNum {
	c := NewCDF(samples)
	return FiveNum{
		Min:    c.Min(),
		Q1:     c.Quantile(0.25),
		Median: c.Median(),
		Q3:     c.Quantile(0.75),
		Max:    c.Max(),
		N:      c.N(),
	}
}

// SummaryInts computes the five-number summary of integer samples.
func SummaryInts(samples []int) FiveNum {
	f := make([]float64, len(samples))
	for i, v := range samples {
		f[i] = float64(v)
	}
	return Summary(f)
}

// Histogram counts samples into fixed-width bins covering [lo, hi); values
// outside the range are clamped into the first/last bin so totals are
// preserved.
func Histogram(samples []float64, lo, hi float64, bins int) []int {
	out := make([]int, bins)
	if bins == 0 || hi <= lo {
		return out
	}
	w := (hi - lo) / float64(bins)
	for _, v := range samples {
		i := int((v - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		out[i]++
	}
	return out
}
