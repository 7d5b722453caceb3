package core

import (
	"context"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
)

// Category is the paper's four-way taxonomy of admin/op alignment (§6,
// Figure 6).
type Category uint8

// Taxonomy categories.
const (
	// CatComplete: every overlapping operational life fits entirely
	// inside the administrative life (§6.1).
	CatComplete Category = iota
	// CatPartial: at least one operational life sticks out of the
	// administrative life it overlaps (§6.2).
	CatPartial
	// CatUnused: an administrative life with no overlapping operational
	// life at all (§6.3).
	CatUnused
	// CatOutside: an operational life with no overlapping administrative
	// life (§6.4). Only operational lives carry this category.
	CatOutside
)

var categoryNames = [...]string{"complete overlap", "partial overlap", "unused", "outside delegation"}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "unknown"
}

// Joint is the aligned view of both lifetime dimensions.
type Joint struct {
	Admin *AdminIndex
	Ops   *OpIndex

	// AdminCat[i] classifies Admin.Lifetimes[i] into CatComplete,
	// CatPartial or CatUnused.
	AdminCat []Category
	// OpCat[i] classifies Ops.Lifetimes[i] into CatComplete, CatPartial
	// or CatOutside.
	OpCat []Category

	// ContainedOps[i] lists, for admin lifetime i, the indices of the
	// operational lifetimes fully inside it.
	ContainedOps [][]int
	// OverlapOps[i] lists all operational lifetimes overlapping admin
	// lifetime i (contained ones included).
	OverlapOps [][]int
}

// Analyze aligns the two dimensions and classifies every lifetime.
func Analyze(admin *AdminIndex, ops *OpIndex) *Joint {
	j, _ := AnalyzeParallelContext(context.Background(), admin, ops, 1)
	return j
}

// TaxonomyCounts is the Table 3 summary.
type TaxonomyCounts struct {
	AdminComplete, AdminPartial, AdminUnused int
	OpComplete, OpPartial, OpOutside         int
}

// Taxonomy tallies the classification (Table 3).
func (j *Joint) Taxonomy() TaxonomyCounts {
	var t TaxonomyCounts
	for _, c := range j.AdminCat {
		switch c {
		case CatComplete:
			t.AdminComplete++
		case CatPartial:
			t.AdminPartial++
		case CatUnused:
			t.AdminUnused++
		}
	}
	for _, c := range j.OpCat {
		switch c {
		case CatComplete:
			t.OpComplete++
		case CatPartial:
			t.OpPartial++
		case CatOutside:
			t.OpOutside++
		}
	}
	return t
}

// Utilization returns, for every admin lifetime whose overlapping op
// lives are all contained (the §6.1 complete-overlap class) and
// non-empty, the fraction of the administrative days covered by
// operational activity — the Figure 7 CDF.
func (j *Joint) Utilization() []float64 {
	var out []float64
	for ai, cat := range j.AdminCat {
		if cat != CatComplete {
			continue
		}
		al := &j.Admin.Lifetimes[ai]
		covered := 0
		for _, oi := range j.ContainedOps[ai] {
			covered += j.Ops.Lifetimes[oi].Span.Days()
		}
		out = append(out, float64(covered)/float64(al.Span.Days()))
	}
	return out
}

// OverlapProfile summarizes the §6.1 under-utilization causes.
type OverlapProfile struct {
	// DeallocLagDays collects, per RIR, the delays between the last
	// contained operational day and the deallocation, for closed admin
	// lives ("late deallocations").
	DeallocLagDays [asn.NumRIRs][]int
	// StartDelayDays collects, per RIR, the delays between allocation
	// and the first contained operational day.
	StartDelayDays [asn.NumRIRs][]int
	// OpLivesPerAdmin histograms the number of contained op lives for
	// complete-overlap admin lives with at least one: index 0 holds the
	// count of lives with exactly 1, index 1 exactly 2, index 2 three or
	// more, index 3 more than ten.
	OneLife, TwoLives, MoreLives, TenPlus int
	// TenPlusWithSiblings counts ten-plus ASNs whose organization holds
	// sibling ASNs.
	TenPlusWithSiblings int
	// LargelySpaced counts multi-life admin lives whose contained op
	// lives are separated by more than a year.
	LargelySpaced int
	MultiLife     int
}

// Overlap profiles the complete-overlap category (§6.1). windowEnd
// excludes still-open lifetimes from the deallocation-lag statistics,
// as the paper does.
func (j *Joint) Overlap(windowEnd dates.Day) OverlapProfile {
	var p OverlapProfile
	siblings := j.Admin.SiblingCounts()
	for ai, cat := range j.AdminCat {
		if cat != CatComplete {
			continue
		}
		al := &j.Admin.Lifetimes[ai]
		contained := j.ContainedOps[ai]
		if len(contained) == 0 {
			continue
		}
		first := j.Ops.Lifetimes[contained[0]].Span
		last := j.Ops.Lifetimes[contained[len(contained)-1]].Span
		p.StartDelayDays[al.RIR] = append(p.StartDelayDays[al.RIR], first.Start.Sub(al.Span.Start))
		if !al.Open && al.Span.End < windowEnd {
			p.DeallocLagDays[al.RIR] = append(p.DeallocLagDays[al.RIR], al.Span.End.Sub(last.End))
		}
		switch n := len(contained); {
		case n == 1:
			p.OneLife++
		case n == 2:
			p.TwoLives++
		default:
			p.MoreLives++
		}
		if len(contained) > 10 {
			p.TenPlus++
			if len(siblings[al.OpaqueID]) > 1 {
				p.TenPlusWithSiblings++
			}
		}
		if len(contained) > 1 {
			p.MultiLife++
			for k := 1; k < len(contained); k++ {
				gap := j.Ops.Lifetimes[contained[k]].Span.Start.Sub(j.Ops.Lifetimes[contained[k-1]].Span.End) - 1
				if gap > 365 {
					p.LargelySpaced++
					break
				}
			}
		}
	}
	return p
}

// AliveSeries computes the Figure 4 daily series: per-RIR and overall
// counts of administratively and operationally alive ASNs.
type AliveSeries struct {
	Start, End   dates.Day
	AdminPerRIR  [asn.NumRIRs][]int
	AdminOverall []int
	OpPerRIR     [asn.NumRIRs][]int
	OpOverall    []int
}

// Alive builds the Figure 4 series over [start, end]. Operational counts
// attribute an ASN to the registry of the administrative lifetime
// covering (or nearest to) the day; ASNs with no administrative life
// count only in the overall line.
func (j *Joint) Alive(start, end dates.Day) *AliveSeries {
	n := end.Sub(start) + 1
	s := &AliveSeries{Start: start, End: end}
	s.AdminOverall = make([]int, n)
	s.OpOverall = make([]int, n)
	for r := range s.AdminPerRIR {
		s.AdminPerRIR[r] = make([]int, n)
		s.OpPerRIR[r] = make([]int, n)
	}
	bump := func(series []int, iv intervals.Interval) {
		lo := dates.Max(iv.Start, start)
		hi := dates.Min(iv.End, end)
		for d := lo; d <= hi; d++ {
			series[d.Sub(start)]++
		}
	}
	for _, al := range j.Admin.Lifetimes {
		bump(s.AdminOverall, al.Span)
		bump(s.AdminPerRIR[al.RIR], al.Span)
	}
	for _, ol := range j.Ops.Lifetimes {
		// Count actual activity days, not the bridged lifetime, so the
		// series reflects observed presence.
		act := j.Ops.Activity.ASNs[ol.ASN]
		if act == nil {
			continue
		}
		rirOf := func(d dates.Day) (asn.RIR, bool) {
			for _, ai := range j.Admin.Of(ol.ASN) {
				if j.Admin.Lifetimes[ai].Span.Contains(d) {
					return j.Admin.Lifetimes[ai].RIR, true
				}
			}
			return 0, false
		}
		for _, iv := range act.Days {
			sub, ok := iv.Intersect(ol.Span)
			if !ok {
				continue
			}
			lo := dates.Max(sub.Start, start)
			hi := dates.Min(sub.End, end)
			for d := lo; d <= hi; d++ {
				s.OpOverall[d.Sub(start)]++
				if r, ok := rirOf(d); ok {
					s.OpPerRIR[r][d.Sub(start)]++
				}
			}
		}
	}
	return s
}
