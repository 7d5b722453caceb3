package report

import (
	"fmt"
	"strings"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/stats"
)

// Section61 summarizes the §6.1 complete-overlap analysis: late
// deallocations, start delays, intermittent use and dormant squatting.
type Section61 struct {
	Profile         core.OverlapProfile
	MedianLag       [asn.NumRIRs]float64
	MedianStart     [asn.NumRIRs]float64
	SquatFindings   []core.SquatFinding
	Coordinated     map[asn.ASN][]core.SquatFinding
	OneLifeShare    float64
	TwoLivesShare   float64
	MoreLivesShare  float64
	LargelySpacedPc float64
}

// BuildSection61 profiles §6.1.
func BuildSection61(j *core.Joint, windowEnd dates.Day, squat core.SquatParams) Section61 {
	s := Section61{Profile: j.Overlap(windowEnd)}
	for _, r := range asn.All() {
		if len(s.Profile.DeallocLagDays[r]) > 0 {
			s.MedianLag[r] = stats.NewCDFInts(s.Profile.DeallocLagDays[r]).Median()
		}
		if len(s.Profile.StartDelayDays[r]) > 0 {
			s.MedianStart[r] = stats.NewCDFInts(s.Profile.StartDelayDays[r]).Median()
		}
	}
	total := s.Profile.OneLife + s.Profile.TwoLives + s.Profile.MoreLives
	if total > 0 {
		s.OneLifeShare = float64(s.Profile.OneLife) / float64(total)
		s.TwoLivesShare = float64(s.Profile.TwoLives) / float64(total)
		s.MoreLivesShare = float64(s.Profile.MoreLives) / float64(total)
	}
	if s.Profile.MultiLife > 0 {
		s.LargelySpacedPc = float64(s.Profile.LargelySpaced) / float64(s.Profile.MultiLife)
	}
	s.SquatFindings = j.DetectDormantSquats(squat)
	s.Coordinated = core.CoordinatedGroups(s.SquatFindings, 2)
	return s
}

// Text renders the summary.
func (s Section61) Text() string {
	var b strings.Builder
	b.WriteString("Section 6.1: complete overlap\n")
	rows := make([][]string, 0, asn.NumRIRs)
	for _, r := range asn.All() {
		rows = append(rows, []string{
			r.String(),
			fday(s.MedianLag[r]),
			fday(s.MedianStart[r]),
			itoa(len(s.Profile.DeallocLagDays[r])),
		})
	}
	b.WriteString(textTable("late deallocation / start delay medians",
		[]string{"RIR", "Median dealloc lag", "Median start delay", "Closed lives"}, rows))
	fmt.Fprintf(&b, "op lives per admin life: 1 life %s, 2 lives %s, >2 lives %s\n",
		pct(s.OneLifeShare), pct(s.TwoLivesShare), pct(s.MoreLivesShare))
	fmt.Fprintf(&b, ">10 op lives: %d (with siblings: %d)\n",
		s.Profile.TenPlus, s.Profile.TenPlusWithSiblings)
	fmt.Fprintf(&b, "largely spaced (gap > 365d): %d of %d multi-life (%s)\n",
		s.Profile.LargelySpaced, s.Profile.MultiLife, pct(s.LargelySpacedPc))
	fmt.Fprintf(&b, "dormant-squat filter matches: %d op lives; coordinated upstream groups: %d\n",
		len(s.SquatFindings), len(s.Coordinated))
	return b.String()
}

// Section62 summarizes §6.2 (partial overlap).
type Section62 struct {
	Profile           core.PartialProfile
	MedianDanglingDay float64
	NoCustomerShare   float64
	// NoTruth is set when no cone sizes were given, so NoCustomerShare
	// has nothing to measure.
	NoTruth bool
}

// BuildSection62 profiles §6.2. cones may be nil: the dataset then has
// no ground truth, and the no-customer share is not available.
func BuildSection62(j *core.Joint, cones core.ConeProvider) Section62 {
	s := Section62{Profile: j.Partial(cones), NoTruth: cones == nil}
	if len(s.Profile.DanglingDays) > 0 {
		s.MedianDanglingDay = stats.NewCDFInts(s.Profile.DanglingDays).Median()
	}
	if s.Profile.DanglingWithCone > 0 {
		s.NoCustomerShare = float64(s.Profile.DanglingNoCustomers) / float64(s.Profile.DanglingWithCone)
	}
	return s
}

// Text renders the summary.
func (s Section62) Text() string {
	var b strings.Builder
	b.WriteString("Section 6.2: partial overlap\n")
	p := s.Profile
	dangShare := 0.0
	if p.AdminLives > 0 {
		dangShare = float64(p.Dangling) / float64(p.AdminLives)
	}
	fmt.Fprintf(&b, "partial-overlap admin lives: %d\n", p.AdminLives)
	noCustomer := pct(s.NoCustomerShare)
	if s.NoTruth {
		noCustomer = "n/a without ground truth"
	}
	fmt.Fprintf(&b, "dangling announcements: %d (%s of category), median overrun %s, no-customer share %s\n",
		p.Dangling, pct(dangShare), fday(s.MedianDanglingDay), noCustomer)
	fmt.Fprintf(&b, "early starts (before allocation in files): %d, of which before registration date: %d\n",
		p.EarlyStart, p.EarlyBeforeReg)
	return b.String()
}

// Section63 summarizes §6.3 (unused administrative lives).
type Section63 struct {
	Profile      core.UnusedProfile
	TopCountries []core.CountryDisproportion
	// Short32Share per RIR: fraction of sub-month unused lives that are
	// 32-bit numbers.
	Short32Share   [asn.NumRIRs]float64
	Replaced16Rate float64
}

// BuildSection63 profiles §6.3.
func BuildSection63(j *core.Joint) Section63 {
	s := Section63{Profile: j.Unused()}
	s.TopCountries = s.Profile.TopUnusedCountries(10)
	for _, r := range asn.All() {
		if s.Profile.ShortUnusedTotal[r] > 0 {
			s.Short32Share[r] = float64(s.Profile.ShortUnused32[r]) / float64(s.Profile.ShortUnusedTotal[r])
		}
	}
	if s.Profile.ReplacedChecked > 0 {
		s.Replaced16Rate = float64(s.Profile.Replaced16) / float64(s.Profile.ReplacedChecked)
	}
	return s
}

// Text renders the summary.
func (s Section63) Text() string {
	var b strings.Builder
	b.WriteString("Section 6.3: allocated but unused\n")
	p := s.Profile
	fmt.Fprintf(&b, "unused admin lives: %d over %d ASNs (never used at all: %d ASNs)\n",
		p.Lives, p.ASNs, p.NeverUsedASNs)
	rows := make([][]string, 0, len(s.TopCountries))
	for _, c := range s.TopCountries {
		rows = append(rows, []string{c.CC, itoa(c.Unused), itoa(c.Total), pct(c.UnusedFraction)})
	}
	b.WriteString(textTable("top countries by unused administrative lives",
		[]string{"CC", "Unused", "Total", "Unused frac"}, rows))
	srows := make([][]string, 0, asn.NumRIRs)
	for _, r := range asn.All() {
		srows = append(srows, []string{
			r.String(), itoa(p.ShortUnusedTotal[r]), itoa(p.ShortUnused32[r]),
			pct(s.Short32Share[r]),
		})
	}
	b.WriteString(textTable("unused lives shorter than a month: 32-bit share",
		[]string{"RIR", "Short unused", "32-bit", "Share"}, srows))
	fmt.Fprintf(&b, "sibling-organization unused lives: %d\n", p.SiblingUnused)
	fmt.Fprintf(&b, "failed 32-bit deployments replaced by 16-bit within 30d: %d/%d (%s)\n",
		p.Replaced16, p.ReplacedChecked, pct(s.Replaced16Rate))
	return b.String()
}

// Section64 summarizes §6.4 (operational lives outside delegation).
type Section64 struct {
	Profile core.OutsideProfile
}

// BuildSection64 profiles §6.4.
func BuildSection64(j *core.Joint) Section64 {
	return Section64{Profile: j.Outside()}
}

// Text renders the summary.
func (s Section64) Text() string {
	var b strings.Builder
	p := s.Profile
	b.WriteString("Section 6.4: operational lives outside delegation\n")
	fmt.Fprintf(&b, "ASNs used after deallocation: %d (hijack-pattern events: %d)\n",
		p.ASNsPostDealloc, p.HijackEvents)
	fmt.Fprintf(&b, "never-allocated ASNs in BGP: %d (bogons excluded: %d)\n",
		p.ASNsNeverAllocated, p.BogonASNsExcluded)
	fmt.Fprintf(&b, "  active > 1 day: %d, > 1 month: %d, > 1 year: %d\n",
		p.NeverAllocOver1Day, p.NeverAllocOver1Mon, p.NeverAllocOver1Year)
	fmt.Fprintf(&b, "  fat-finger prepend (doubled origin): %d\n", p.PrependCases)
	fmt.Fprintf(&b, "  fat-finger MOAS (one digit off):     %d\n", p.MOASCases)
	fmt.Fprintf(&b, "  large internal leaks (> max digits): %d\n", p.LargeLeaks)
	fmt.Fprintf(&b, "  unexplained:                         %d\n", p.Unexplained)
	return b.String()
}
