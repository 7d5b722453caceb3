package report

import (
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
)

// Table1 is the delegation-file inventory (paper Table 1).
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one registry's archive inventory.
type Table1Row struct {
	RIR           asn.RIR
	FirstRegular  dates.Day
	FirstExtended dates.Day
	FileCount     int
}

// BuildTable1 inventories the archive from each registry's file count.
func BuildTable1(fileCounts [asn.NumRIRs]int) Table1 {
	var t Table1
	for _, r := range asn.All() {
		t.Rows = append(t.Rows, Table1Row{
			RIR:           r,
			FirstRegular:  delegation.FirstRegular(r),
			FirstExtended: delegation.FirstExtended(r),
			FileCount:     fileCounts[r],
		})
	}
	return t
}

// Text renders the table.
func (t Table1) Text() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.RIR.String(), r.FirstRegular.String(), r.FirstExtended.String(),
			itoa(r.FileCount),
		})
	}
	return textTable("Table 1: delegation files collected per RIR",
		[]string{"RIR", "First regular", "First extended", "Files"}, rows)
}

// Table2 is the lifetime-multiplicity table (paper Table 2): the share
// of ASNs with 1, 2 and more than 2 administrative and operational lives.
type Table2 struct {
	Rows  []Table2Row
	Total Table2Row
}

// Table2Row is one registry's multiplicity distribution.
type Table2Row struct {
	RIR                     asn.RIR
	Adm1, Adm2, AdmMore     float64
	Op1, Op2, OpMore        float64
	AdmASNCount, OpASNCount int
}

// BuildTable2 computes the lifetime-per-ASN distribution. Operational
// lives attribute each ASN to the registry of its (latest)
// administrative lifetime; ASNs never seen in delegation files are
// excluded from the per-RIR rows but counted in the total.
func BuildTable2(j *core.Joint) Table2 {
	admCount := make(map[asn.ASN]int)
	rirOf := make(map[asn.ASN]asn.RIR)
	for _, al := range j.Admin.Lifetimes {
		admCount[al.ASN]++
		rirOf[al.ASN] = al.RIR
	}
	opCount := make(map[asn.ASN]int)
	for _, ol := range j.Ops.Lifetimes {
		opCount[ol.ASN]++
	}

	type acc struct {
		a1, a2, aM int
		o1, o2, oM int
		aN, oN     int
	}
	var per [asn.NumRIRs]acc
	var tot acc
	bump := func(a *acc, admin bool, n int) {
		if admin {
			a.aN++
			switch {
			case n == 1:
				a.a1++
			case n == 2:
				a.a2++
			default:
				a.aM++
			}
		} else {
			a.oN++
			switch {
			case n == 1:
				a.o1++
			case n == 2:
				a.o2++
			default:
				a.oM++
			}
		}
	}
	for a, n := range admCount {
		bump(&per[rirOf[a]], true, n)
		bump(&tot, true, n)
	}
	for a, n := range opCount {
		if r, ok := rirOf[a]; ok {
			bump(&per[r], false, n)
		}
		bump(&tot, false, n)
	}

	mkRow := func(r asn.RIR, c acc) Table2Row {
		row := Table2Row{RIR: r, AdmASNCount: c.aN, OpASNCount: c.oN}
		if c.aN > 0 {
			row.Adm1 = float64(c.a1) / float64(c.aN)
			row.Adm2 = float64(c.a2) / float64(c.aN)
			row.AdmMore = float64(c.aM) / float64(c.aN)
		}
		if c.oN > 0 {
			row.Op1 = float64(c.o1) / float64(c.oN)
			row.Op2 = float64(c.o2) / float64(c.oN)
			row.OpMore = float64(c.oM) / float64(c.oN)
		}
		return row
	}
	var t Table2
	for _, r := range asn.All() {
		t.Rows = append(t.Rows, mkRow(r, per[r]))
	}
	t.Total = mkRow(0, tot)
	return t
}

// Text renders the table.
func (t Table2) Text() string {
	rows := make([][]string, 0, len(t.Rows)+1)
	render := func(name string, r Table2Row) []string {
		return []string{name,
			pct(r.Adm1), pct(r.Op1), pct(r.Adm2), pct(r.Op2), pct(r.AdmMore), pct(r.OpMore)}
	}
	for _, r := range t.Rows {
		rows = append(rows, render(r.RIR.String(), r))
	}
	rows = append(rows, render("Total", t.Total))
	return textTable("Table 2: number of administrative and operational lifetimes per ASN",
		[]string{"RIR", "1 adm", "1 op", "2 adm", "2 op", ">2 adm", ">2 op"}, rows)
}

// Table3 is the taxonomy distribution (paper Table 3).
type Table3 struct {
	Counts core.TaxonomyCounts
	core.TaxonomyShares
}

// BuildTable3 tallies the four categories.
func BuildTable3(j *core.Joint) Table3 {
	c := j.Taxonomy()
	return Table3{Counts: c, TaxonomyShares: c.Shares()}
}

// Text renders the table.
func (t Table3) Text() string {
	rows := [][]string{
		{"complete overlap", itoa(t.Counts.AdminComplete), itoa(t.Counts.OpComplete), pct(t.CompleteShare)},
		{"partial overlap", itoa(t.Counts.AdminPartial), itoa(t.Counts.OpPartial), pct(t.PartialShare)},
		{"unused admin lives", itoa(t.Counts.AdminUnused), "0", pct(t.UnusedShare)},
		{"op lives outside delegation", "0", itoa(t.Counts.OpOutside), "-"},
		{"total", itoa(t.AdminTotal), itoa(t.OpTotal), "-"},
	}
	return textTable("Table 3: taxonomy distribution",
		[]string{"Category", "Adm. lives", "Op. lives", "Adm share"}, rows)
}

// Table4 is the APNIC country evolution (paper Table 4): top countries
// by alive allocations at successive snapshot dates.
type Table4 struct {
	Snapshots []Table4Snapshot
}

// Table4Snapshot is the top-N ranking at one date.
type Table4Snapshot struct {
	Date dates.Day
	Rows []CountryCount
}

// CountryCount is one country's count and share.
type CountryCount struct {
	CC    string
	Count int
	Share float64
}

// BuildTable4 ranks APNIC countries at each snapshot date.
func BuildTable4(j *core.Joint, snapshots []dates.Day, topN int) Table4 {
	var t Table4
	for _, snap := range snapshots {
		counts := make(map[string]int)
		total := 0
		for _, al := range j.Admin.Lifetimes {
			if al.RIR != asn.APNIC || !al.Span.Contains(snap) {
				continue
			}
			total++
			if al.CC == "ZZ" {
				continue // rest-of-region aggregate; not a country
			}
			counts[al.CC]++
		}
		rows := make([]CountryCount, 0, len(counts))
		for cc, n := range counts {
			share := 0.0
			if total > 0 {
				share = float64(n) / float64(total)
			}
			rows = append(rows, CountryCount{CC: cc, Count: n, Share: share})
		}
		sort.Slice(rows, func(i, k int) bool {
			if rows[i].Count != rows[k].Count {
				return rows[i].Count > rows[k].Count
			}
			return rows[i].CC < rows[k].CC
		})
		if topN < len(rows) {
			rows = rows[:topN]
		}
		t.Snapshots = append(t.Snapshots, Table4Snapshot{Date: snap, Rows: rows})
	}
	return t
}

// Text renders the table.
func (t Table4) Text() string {
	var rows [][]string
	maxLen := 0
	for _, s := range t.Snapshots {
		if len(s.Rows) > maxLen {
			maxLen = len(s.Rows)
		}
	}
	header := []string{"Pos."}
	for _, s := range t.Snapshots {
		header = append(header, s.Date.String())
	}
	for i := 0; i < maxLen; i++ {
		row := []string{itoa(i + 1)}
		for _, s := range t.Snapshots {
			if i < len(s.Rows) {
				r := s.Rows[i]
				row = append(row, r.CC+": "+itoa(r.Count)+" - "+pct(r.Share))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return textTable("Table 4: APNIC countries evolution", header, rows)
}

// Table5 is the timeout-sensitivity table (paper Table 5): taxonomy
// counts under alternative inactivity timeouts.
type Table5 struct {
	Rows     []Table5Row
	Baseline int // the timeout the deltas are computed against
}

// Table5Row is the taxonomy at one timeout.
type Table5Row struct {
	Timeout                     int
	Complete, Partial, Outside  int
	DeltaComplete, DeltaPartial float64
	DeltaOutside                float64
}

// BuildTable5 re-runs the joint classification at each timeout.
func BuildTable5(admin *core.AdminIndex, act *bgpscan.Activity, timeouts []int, baseline int) Table5 {
	t := Table5{Baseline: baseline}
	var base *Table5Row
	for _, to := range timeouts {
		ops := core.BuildOpLifetimes(act, to)
		j := core.Analyze(admin, ops)
		c := j.Taxonomy()
		row := Table5Row{
			Timeout: to, Complete: c.AdminComplete, Partial: c.AdminPartial,
			Outside: c.OpOutside,
		}
		t.Rows = append(t.Rows, row)
		if to == baseline {
			base = &t.Rows[len(t.Rows)-1]
		}
	}
	if base != nil {
		for i := range t.Rows {
			r := &t.Rows[i]
			r.DeltaComplete = delta(r.Complete, base.Complete)
			r.DeltaPartial = delta(r.Partial, base.Partial)
			r.DeltaOutside = delta(r.Outside, base.Outside)
		}
	}
	return t
}

func delta(v, base int) float64 {
	if base == 0 {
		return 0
	}
	return float64(v-base)/float64(base)*100 - 0
}

// Text renders the table.
func (t Table5) Text() string {
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			itoa(r.Timeout),
			itoa(r.Complete) + " (" + f2(r.DeltaComplete) + "%)",
			itoa(r.Partial) + " (" + f2(r.DeltaPartial) + "%)",
			itoa(r.Outside) + " (" + f2(r.DeltaOutside) + "%)",
		})
	}
	return textTable("Table 5: taxonomy sensitivity to the inactivity timeout",
		[]string{"Timeout", "Complete overlap", "Partial overlap", "Op lives outside delegation"}, rows)
}
