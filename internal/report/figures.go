package report

import (
	"fmt"
	"sort"
	"strings"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/restore"
	"parallellives/internal/stats"
)

// Figure3 is the timeout-sensitivity figure: the CDF of per-ASN activity
// gaps and the fraction of administrative lives with at most one
// operational life, as functions of the timeout.
type Figure3 struct {
	Points  []core.TimeoutSensitivity
	Chosen  int
	AtKnee  core.TimeoutSensitivity
	hasKnee bool
}

// BuildFigure3 sweeps the given timeouts; chosen marks the paper's 30.
func BuildFigure3(act *bgpscan.Activity, admin *core.AdminIndex, timeouts []int, chosen int) Figure3 {
	f := Figure3{Points: core.SweepTimeouts(act, admin, timeouts), Chosen: chosen}
	for _, p := range f.Points {
		if p.Timeout == chosen {
			f.AtKnee = p
			f.hasKnee = true
		}
	}
	return f
}

// Text renders the series.
func (f Figure3) Text() string {
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		mark := ""
		if p.Timeout == f.Chosen {
			mark = "  <- chosen"
		}
		rows = append(rows, []string{
			itoa(p.Timeout), pct(p.GapFractionBelow), pct(p.AdminWithOneOrLessOpLives),
			itoa(p.OpLifetimes) + mark,
		})
	}
	return textTable("Figure 3: sensitivity to the BGP inactivity timeout",
		[]string{"Timeout (d)", "Gaps <= timeout", "Adm lives w/ <=1 op life", "Op lifetimes"}, rows)
}

// Figure4 is the daily alive-count figure (and its Figure 13 single-axis
// variant): per-RIR and overall administrative vs operational series,
// down-sampled to the requested stride.
type Figure4 struct {
	core.SeriesSample
	Crossover struct {
		// AdminRIPEOverARIN / OpRIPEOverARIN are the first sampled days
		// on which RIPE NCC exceeds ARIN in each dimension (§5's 2012 vs
		// 2009 finding); None when it never happens.
		Admin dates.Day
		Op    dates.Day
	}
	// EndGap is the final-day fraction of allocated ASNs not
	// operationally alive (§5's "almost 28%").
	EndGap float64
}

// BuildFigure4 samples the alive series every stride days.
func BuildFigure4(j *core.Joint, start, end dates.Day, stride int) Figure4 {
	s := j.Alive(start, end)
	f := Figure4{SeriesSample: s.Sample(stride)}
	f.Crossover.Admin = dates.None
	f.Crossover.Op = dates.None
	for i, d := range f.Days {
		if f.Crossover.Admin == dates.None &&
			f.Admin[asn.RIPENCC][i] > f.Admin[asn.ARIN][i] {
			f.Crossover.Admin = d
		}
		if f.Crossover.Op == dates.None &&
			f.Op[asn.RIPENCC][i] > f.Op[asn.ARIN][i] {
			f.Crossover.Op = d
		}
	}
	last := len(s.AdminOverall) - 1
	if last >= 0 && s.AdminOverall[last] > 0 {
		f.EndGap = 1 - float64(s.OpOverall[last])/float64(s.AdminOverall[last])
	}
	return f
}

// Text renders the sampled series.
func (f Figure4) Text() string {
	var b strings.Builder
	header := []string{"Date"}
	for _, r := range asn.All() {
		header = append(header, r.String(), r.String()+" BGP")
	}
	header = append(header, "Overall", "Overall BGP")
	rows := make([][]string, 0, len(f.Days))
	for i, d := range f.Days {
		row := []string{d.String()}
		for _, r := range asn.All() {
			row = append(row, itoa(f.Admin[r][i]), itoa(f.Op[r][i]))
		}
		row = append(row, itoa(f.AdminAll[i]), itoa(f.OpAll[i]))
		rows = append(rows, row)
	}
	b.WriteString(textTable("Figure 4: administratively vs operationally alive ASNs per day", header, rows))
	fmt.Fprintf(&b, "RIPE NCC surpasses ARIN: admin %s, BGP %s\n",
		f.Crossover.Admin, f.Crossover.Op)
	fmt.Fprintf(&b, "final-day allocated-but-not-in-BGP gap: %s\n", pct(f.EndGap))
	return b.String()
}

// Figure5 is the per-RIR CDF of administrative lifetime durations.
type Figure5 struct {
	CDFs [asn.NumRIRs]*stats.CDF
	// Over5y / Over10y / Under1y summarize the fractions §5 quotes.
	Over5y, Over10y, Under1y [asn.NumRIRs]float64
}

// BuildFigure5 computes the duration CDFs.
func BuildFigure5(admin *core.AdminIndex) Figure5 {
	var per [asn.NumRIRs][]int
	for _, al := range admin.Lifetimes {
		per[al.RIR] = append(per[al.RIR], al.Span.Days())
	}
	var f Figure5
	for _, r := range asn.All() {
		f.CDFs[r] = stats.NewCDFInts(per[r])
		n := f.CDFs[r].N()
		if n == 0 {
			continue
		}
		f.Over5y[r] = 1 - f.CDFs[r].At(5*365)
		f.Over10y[r] = 1 - f.CDFs[r].At(10*365)
		f.Under1y[r] = f.CDFs[r].At(364)
	}
	return f
}

// Text renders the summary quantiles.
func (f Figure5) Text() string {
	rows := make([][]string, 0, asn.NumRIRs)
	for _, r := range asn.All() {
		c := f.CDFs[r]
		med := "-"
		if c.N() > 0 {
			med = fday(c.Median())
		}
		rows = append(rows, []string{
			r.String(), itoa(c.N()), med,
			pct(f.Under1y[r]), pct(f.Over5y[r]), pct(f.Over10y[r]),
		})
	}
	return textTable("Figure 5: CDF of administrative lifetime durations per RIR",
		[]string{"RIR", "Lives", "Median", "<1y", ">5y", ">10y"}, rows)
}

// Figure7 is the utilization CDF of complete-overlap admin lives.
type Figure7 struct {
	CDF *stats.CDF
	// Over75, Over95, Under30 reproduce §6.1.1's cut points.
	Over75, Over95, Under30 float64
}

// BuildFigure7 computes the utilization CDF.
func BuildFigure7(j *core.Joint) Figure7 {
	u := j.Utilization()
	c := stats.NewCDF(u)
	f := Figure7{CDF: c}
	if c.N() > 0 {
		f.Over75 = 1 - c.At(0.75)
		f.Over95 = 1 - c.At(0.95)
		f.Under30 = c.At(0.30)
	}
	return f
}

// Text renders the summary.
func (f Figure7) Text() string {
	rows := [][]string{{
		itoa(f.CDF.N()), pct(f.Over75), pct(f.Over95), pct(f.Under30),
	}}
	return textTable("Figure 7: utilization of complete-overlap administrative lives",
		[]string{"Lives", "usage > 75%", "usage > 95%", "usage < 30%"}, rows)
}

// Figure8 is the dormant-squat prefix-count figure: daily origination
// series for the flagged ASNs with the largest spikes.
type Figure8 struct {
	Start, End dates.Day
	Series     []Figure8Series
	// SharedUpstreamGroups counts coordinated groups (same dominant
	// upstream across multiple flagged ASNs).
	SharedUpstreamGroups int
}

// Figure8Series is one ASN's daily prefix-count series (sampled).
type Figure8Series struct {
	ASN         asn.ASN
	Peak        int
	WakeSpan    intervals.Interval
	DormantDays int
	Days        []dates.Day
	Counts      []int
	Upstream    asn.ASN
}

// BuildFigure8 selects the top flagged squats by prefix spike.
func BuildFigure8(j *core.Joint, findings []core.SquatFinding, topN, stride int, start, end dates.Day) Figure8 {
	f := Figure8{Start: start, End: end}
	sorted := make([]core.SquatFinding, len(findings))
	copy(sorted, findings)
	sort.Slice(sorted, func(i, k int) bool {
		if sorted[i].PeakPrefixCount != sorted[k].PeakPrefixCount {
			return sorted[i].PeakPrefixCount > sorted[k].PeakPrefixCount
		}
		return sorted[i].ASN < sorted[k].ASN
	})
	seen := map[asn.ASN]bool{}
	for _, fd := range sorted {
		if len(f.Series) >= topN {
			break
		}
		if seen[fd.ASN] {
			continue
		}
		seen[fd.ASN] = true
		series := j.PrefixSeries(fd.ASN, start, end)
		s := Figure8Series{ASN: fd.ASN, Peak: fd.PeakPrefixCount,
			WakeSpan: fd.OpSpan, DormantDays: fd.DormantDays}
		if len(fd.Upstreams) > 0 {
			s.Upstream = fd.Upstreams[0]
		}
		for off := 0; off < len(series); off += stride {
			s.Days = append(s.Days, start.AddDays(off))
			s.Counts = append(s.Counts, series[off])
		}
		f.Series = append(f.Series, s)
	}
	f.SharedUpstreamGroups = len(core.CoordinatedGroups(findings, 2))
	return f
}

// Text renders peak rows (the full series is available in the struct).
func (f Figure8) Text() string {
	rows := make([][]string, 0, len(f.Series))
	for _, s := range f.Series {
		rows = append(rows, []string{
			"AS" + s.ASN.String(), itoa(s.Peak),
			s.WakeSpan.Start.String(), s.WakeSpan.End.String(),
			itoa(s.DormantDays), "AS" + s.Upstream.String(),
		})
	}
	out := textTable("Figure 8: prefixes originated by awakening dormant ASNs",
		[]string{"ASN", "Peak prefixes/day", "Wake", "Sleep", "Dormant days", "Main upstream"}, rows)
	return out + fmt.Sprintf("coordinated groups sharing an upstream: %d\n", f.SharedUpstreamGroups)
}

// Figure9 is the per-RIR CDF of unused administrative life durations.
type Figure9 struct {
	CDFs [asn.NumRIRs]*stats.CDF
	// Under1y reproduces §6.3's "only 14.9% (ARIN) … 45% (LACNIC)".
	Under1y [asn.NumRIRs]float64
}

// BuildFigure9 computes the unused-life duration CDFs.
func BuildFigure9(unused core.UnusedProfile) Figure9 {
	var f Figure9
	for _, r := range asn.All() {
		f.CDFs[r] = stats.NewCDFInts(unused.DurationsByRIR[r])
		if f.CDFs[r].N() > 0 {
			f.Under1y[r] = f.CDFs[r].At(364)
		}
	}
	return f
}

// Text renders the summary.
func (f Figure9) Text() string {
	rows := make([][]string, 0, asn.NumRIRs)
	for _, r := range asn.All() {
		c := f.CDFs[r]
		med := "-"
		if c.N() > 0 {
			med = fday(c.Median())
		}
		rows = append(rows, []string{r.String(), itoa(c.N()), med, pct(f.Under1y[r])})
	}
	return textTable("Figure 9: duration of never-used administrative lives",
		[]string{"RIR", "Unused lives", "Median", "<1y"}, rows)
}

// Figure10 is the quarterly administrative birth rate per RIR.
type Figure10 struct {
	Quarters []int // absolute quarter index
	Births   [asn.NumRIRs][]int
}

// BuildFigure10 bins lifetime registration dates into quarters.
func BuildFigure10(admin *core.AdminIndex) Figure10 {
	var f Figure10
	if len(admin.Lifetimes) == 0 {
		return f
	}
	minQ, maxQ := 1<<30, -(1 << 30)
	for _, al := range admin.Lifetimes {
		if al.RegDate == dates.None {
			continue
		}
		q := al.RegDate.Quarter()
		if q < minQ {
			minQ = q
		}
		if q > maxQ {
			maxQ = q
		}
	}
	if minQ > maxQ {
		return f
	}
	n := maxQ - minQ + 1
	for r := range f.Births {
		f.Births[r] = make([]int, n)
	}
	for q := minQ; q <= maxQ; q++ {
		f.Quarters = append(f.Quarters, q)
	}
	for _, al := range admin.Lifetimes {
		if al.RegDate == dates.None {
			continue
		}
		f.Births[al.RIR][al.RegDate.Quarter()-minQ]++
	}
	return f
}

// Text renders yearly aggregates (quarterly data lives in the struct).
func (f Figure10) Text() string {
	return renderQuarterSeries("Figure 10: per-RIR administrative birth rate (3-month bins)",
		f.Quarters, func(r asn.RIR, i int) int { return f.Births[r][i] })
}

// Figure11 is the quarterly births-minus-deaths balance per RIR.
type Figure11 struct {
	Quarters []int
	Balance  [asn.NumRIRs][]int
}

// BuildFigure11 bins lifetime starts and ends within the window.
func BuildFigure11(admin *core.AdminIndex, start, end dates.Day) Figure11 {
	var f Figure11
	minQ, maxQ := start.Quarter(), end.Quarter()
	n := maxQ - minQ + 1
	for r := range f.Balance {
		f.Balance[r] = make([]int, n)
	}
	for q := minQ; q <= maxQ; q++ {
		f.Quarters = append(f.Quarters, q)
	}
	for _, al := range admin.Lifetimes {
		if al.Span.Start >= start && al.Span.Start <= end {
			f.Balance[al.RIR][al.Span.Start.Quarter()-minQ]++
		}
		if !al.Open && al.Span.End >= start && al.Span.End <= end {
			f.Balance[al.RIR][al.Span.End.Quarter()-minQ]--
		}
	}
	return f
}

// Text renders the series.
func (f Figure11) Text() string {
	return renderQuarterSeries("Figure 11: balance between new allocations and deaths (3-month bins)",
		f.Quarters, func(r asn.RIR, i int) int { return f.Balance[r][i] })
}

func renderQuarterSeries(title string, quarters []int, val func(asn.RIR, int) int) string {
	header := []string{"Quarter"}
	for _, r := range asn.All() {
		header = append(header, r.String())
	}
	rows := make([][]string, 0, len(quarters))
	for i, q := range quarters {
		row := []string{dates.QuarterStart(q).String()}
		for _, r := range asn.All() {
			row = append(row, itoa(val(r, i)))
		}
		rows = append(rows, row)
	}
	return textTable(title, header, rows)
}

// Figure12 is the daily 16- vs 32-bit allocated counts per RIR, sampled.
type Figure12 struct {
	Days  []dates.Day
	Bit16 [asn.NumRIRs][]int
	Bit32 [asn.NumRIRs][]int
}

// BuildFigure12 counts delegated runs by AS-number width.
func BuildFigure12(res *restore.Result, start, end dates.Day, stride int) Figure12 {
	var f Figure12
	n := end.Sub(start) + 1
	var full16, full32 [asn.NumRIRs][]int
	for r := range full16 {
		full16[r] = make([]int, n)
		full32[r] = make([]int, n)
	}
	for _, run := range res.Runs {
		if !run.Delegated() {
			continue
		}
		lo := dates.Max(run.Span.Start, start)
		hi := dates.Min(run.Span.End, end)
		series := full16[run.RIR]
		if run.ASN.Is32Bit() {
			series = full32[run.RIR]
		}
		for d := lo; d <= hi; d++ {
			series[d.Sub(start)]++
		}
	}
	for off := 0; off < n; off += stride {
		f.Days = append(f.Days, start.AddDays(off))
		for _, r := range asn.All() {
			f.Bit16[r] = append(f.Bit16[r], full16[r][off])
			f.Bit32[r] = append(f.Bit32[r], full32[r][off])
		}
	}
	return f
}

// Text renders the sampled series.
func (f Figure12) Text() string {
	header := []string{"Date"}
	for _, r := range asn.All() {
		header = append(header, r.String()+"_16", r.String()+"_32")
	}
	rows := make([][]string, 0, len(f.Days))
	for i, d := range f.Days {
		row := []string{d.String()}
		for _, r := range asn.All() {
			row = append(row, itoa(f.Bit16[r][i]), itoa(f.Bit32[r][i]))
		}
		rows = append(rows, row)
	}
	return textTable("Figure 12: 16-bit vs 32-bit allocated ASNs per day", header, rows)
}

// Figure14 is the life-duration-by-birth-year boxplot data.
type Figure14 struct {
	// Boxes[(rir, year)] in row order: one row per (year, rir) with
	// allocations.
	Rows []Figure14Row
}

// Figure14Row is one (registry, birth year) boxplot.
type Figure14Row struct {
	RIR      asn.RIR
	Year     int
	Duration stats.FiveNum
	Births   int
}

// BuildFigure14 computes per-(RIR, birth-year) duration summaries for
// lifetimes starting inside [startYear, endYear].
func BuildFigure14(admin *core.AdminIndex, startYear, endYear int) Figure14 {
	byKey := make(map[[2]int][]int)
	for _, al := range admin.Lifetimes {
		y := al.Span.Start.Year()
		if y < startYear || y > endYear {
			continue
		}
		k := [2]int{y, int(al.RIR)}
		byKey[k] = append(byKey[k], al.Span.Days())
	}
	var f Figure14
	for y := startYear; y <= endYear; y++ {
		for _, r := range asn.All() {
			durs := byKey[[2]int{y, int(r)}]
			if len(durs) == 0 {
				continue
			}
			f.Rows = append(f.Rows, Figure14Row{
				RIR: r, Year: y,
				Duration: stats.SummaryInts(durs),
				Births:   len(durs),
			})
		}
	}
	return f
}

// Text renders the boxplot rows.
func (f Figure14) Text() string {
	rows := make([][]string, 0, len(f.Rows))
	for _, r := range f.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%s_%d", r.RIR.Token(), r.Year),
			itoa(r.Births),
			fday(r.Duration.Min), fday(r.Duration.Q1), fday(r.Duration.Median),
			fday(r.Duration.Q3), fday(r.Duration.Max),
		})
	}
	return textTable("Figure 14: administrative life duration by birth year per RIR",
		[]string{"RIR_year", "Births", "Min", "Q1", "Median", "Q3", "Max"}, rows)
}
