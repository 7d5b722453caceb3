package report

import (
	"strings"
	"sync"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/pipeline"
)

var (
	dsOnce sync.Once
	ds     *pipeline.Dataset
	dsErr  error
)

// dataset builds one shared reduced dataset for all report tests.
func dataset(t *testing.T) *pipeline.Dataset {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	dsOnce.Do(func() {
		opts := pipeline.DefaultOptions()
		opts.World.Scale = 0.02
		opts.World.Start = dates.MustParse("2004-01-01")
		opts.World.End = dates.MustParse("2010-12-31")
		ds, dsErr = pipeline.Run(opts)
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return ds
}

func TestTable1(t *testing.T) {
	d := dataset(t)
	tbl := BuildTable1(d.FileCounts)
	if len(tbl.Rows) != int(asn.NumRIRs) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.FileCount <= 0 {
			t.Errorf("%v: no files", r.RIR)
		}
	}
	if !strings.Contains(tbl.Text(), "APNIC") {
		t.Error("Text missing APNIC row")
	}
}

func TestTable2SharesSumToOne(t *testing.T) {
	d := dataset(t)
	tbl := BuildTable2(d.Joint)
	for _, r := range append(tbl.Rows, tbl.Total) {
		if r.AdmASNCount == 0 {
			continue
		}
		if s := r.Adm1 + r.Adm2 + r.AdmMore; s < 0.999 || s > 1.001 {
			t.Errorf("%v: admin shares sum to %v", r.RIR, s)
		}
		if r.OpASNCount > 0 {
			if s := r.Op1 + r.Op2 + r.OpMore; s < 0.999 || s > 1.001 {
				t.Errorf("%v: op shares sum to %v", r.RIR, s)
			}
		}
	}
	// ARIN reallocates most aggressively in the simulated policies.
	var arin, lacnic Table2Row
	for _, r := range tbl.Rows {
		switch r.RIR {
		case asn.ARIN:
			arin = r
		case asn.LACNIC:
			lacnic = r
		}
	}
	if arin.Adm1 >= lacnic.Adm1 {
		t.Errorf("ARIN one-life share (%.2f) should be below LACNIC's (%.2f)",
			arin.Adm1, lacnic.Adm1)
	}
	_ = tbl.Text()
}

func TestTable3MatchesJoint(t *testing.T) {
	d := dataset(t)
	tbl := BuildTable3(d.Joint)
	if tbl.AdminTotal != len(d.Admin.Lifetimes) {
		t.Errorf("admin total %d != %d lifetimes", tbl.AdminTotal, len(d.Admin.Lifetimes))
	}
	if tbl.CompleteShare+tbl.PartialShare+tbl.UnusedShare < 0.999 {
		t.Error("admin shares do not sum to 1")
	}
	_ = tbl.Text()
}

func TestTable4CountryEvolution(t *testing.T) {
	d := dataset(t)
	tbl := BuildTable4(d.Joint, []dates.Day{
		dates.MustParse("2006-01-01"), dates.MustParse("2010-01-01"),
	}, 5)
	if len(tbl.Snapshots) != 2 {
		t.Fatalf("snapshots = %d", len(tbl.Snapshots))
	}
	for _, s := range tbl.Snapshots {
		if len(s.Rows) == 0 {
			t.Fatalf("no countries at %v", s.Date)
		}
		for i := 1; i < len(s.Rows); i++ {
			if s.Rows[i].Count > s.Rows[i-1].Count {
				t.Error("rows not sorted by count")
			}
		}
	}
	_ = tbl.Text()
}

func TestTable5SensitivitySmall(t *testing.T) {
	d := dataset(t)
	tbl := BuildTable5(d.Admin, d.Activity, []int{15, 30, 50}, 30)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var r15, r30, r50 Table5Row
	for _, r := range tbl.Rows {
		switch r.Timeout {
		case 15:
			r15 = r
		case 30:
			r30 = r
		case 50:
			r50 = r
		}
	}
	// Shorter timeouts split more op lives outside delegation; longer
	// timeouts merge them (paper Table 5's +4.9% / −4.4% pattern).
	if r15.Outside < r30.Outside || r50.Outside > r30.Outside {
		t.Errorf("outside counts not monotone: 15=%d 30=%d 50=%d",
			r15.Outside, r30.Outside, r50.Outside)
	}
	if r30.DeltaComplete != 0 || r30.DeltaOutside != 0 {
		t.Error("baseline deltas must be zero")
	}
	_ = tbl.Text()
}

func TestFigure3Monotone(t *testing.T) {
	d := dataset(t)
	f := BuildFigure3(d.Activity, d.Admin, []int{1, 5, 15, 30, 50, 100, 365}, 30)
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].GapFractionBelow < f.Points[i-1].GapFractionBelow {
			t.Error("gap CDF not monotone")
		}
	}
	if !strings.Contains(f.Text(), "<- chosen") {
		t.Error("chosen timeout not marked")
	}
	// The 30-day knee covers the bulk of gaps (paper: 70.1%).
	if f.AtKnee.GapFractionBelow < 0.4 {
		t.Errorf("gaps <= 30d = %v, suspiciously low", f.AtKnee.GapFractionBelow)
	}
}

func TestFigure4GapAndSeries(t *testing.T) {
	d := dataset(t)
	start, end := d.Window()
	f := BuildFigure4(d.Joint, start, end, 30)
	if len(f.Days) == 0 {
		t.Fatal("no sampled days")
	}
	if f.EndGap < 0.1 || f.EndGap > 0.5 {
		t.Errorf("end gap = %v out of band", f.EndGap)
	}
	// Admin overall must dominate op overall on every sampled day.
	for i := range f.Days {
		if f.OpAll[i] > f.AdminAll[i] {
			t.Errorf("day %v: op %d > admin %d", f.Days[i], f.OpAll[i], f.AdminAll[i])
		}
	}
	_ = f.Text()
}

func TestFigure5Consistency(t *testing.T) {
	d := dataset(t)
	f := BuildFigure5(d.Admin)
	total := 0
	for _, r := range asn.All() {
		total += f.CDFs[r].N()
		if f.Over10y[r] > f.Over5y[r] {
			t.Errorf("%v: >10y exceeds >5y", r)
		}
	}
	if total != len(d.Admin.Lifetimes) {
		t.Errorf("CDF sample total %d != %d lifetimes", total, len(d.Admin.Lifetimes))
	}
	_ = f.Text()
}

func TestFigure7Bounds(t *testing.T) {
	d := dataset(t)
	f := BuildFigure7(d.Joint)
	if f.CDF.N() == 0 {
		t.Fatal("no utilization samples")
	}
	if f.Over95 > f.Over75 {
		t.Error(">95% usage exceeds >75% usage")
	}
	if f.CDF.Max() > 1.0000001 || f.CDF.Min() < 0 {
		t.Errorf("utilization out of [0,1]: %v..%v", f.CDF.Min(), f.CDF.Max())
	}
	_ = f.Text()
}

func TestFigure8Series(t *testing.T) {
	d := dataset(t)
	findings := d.Joint.DetectDormantSquats(core.DefaultSquatParams())
	start, end := d.Window()
	f := BuildFigure8(d.Joint, findings, 6, 30, start, end)
	if len(findings) > 0 && len(f.Series) == 0 {
		t.Fatal("no series despite findings")
	}
	for _, s := range f.Series {
		if len(s.Days) != len(s.Counts) {
			t.Error("series length mismatch")
		}
	}
	_ = f.Text()
}

func TestFigure9(t *testing.T) {
	d := dataset(t)
	f := BuildFigure9(d.Joint.Unused())
	n := 0
	for _, r := range asn.All() {
		n += f.CDFs[r].N()
	}
	if n == 0 {
		t.Fatal("no unused lives")
	}
	_ = f.Text()
}

func TestFigure10And11(t *testing.T) {
	d := dataset(t)
	f10 := BuildFigure10(d.Admin)
	if len(f10.Quarters) == 0 {
		t.Fatal("no birth quarters")
	}
	total := 0
	for _, r := range asn.All() {
		for _, n := range f10.Births[r] {
			total += n
		}
	}
	if total != len(d.Admin.Lifetimes) {
		t.Errorf("birth total %d != %d lifetimes", total, len(d.Admin.Lifetimes))
	}
	// The dot-com spike: ARIN's peak quarter predates the window.
	peak := 0
	for i, n := range f10.Births[asn.ARIN] {
		if n > f10.Births[asn.ARIN][peak] {
			peak = i
		}
	}
	if f10.Births[asn.ARIN][peak] <= 0 {
		t.Error("no ARIN peak")
	}
	if q := dates.QuarterStart(f10.Quarters[peak]); q.Year() > 2004 {
		t.Errorf("ARIN peak quarter %v should reflect pre-window registrations", q)
	}

	start, end := d.Window()
	f11 := BuildFigure11(d.Admin, start, end)
	if len(f11.Quarters) == 0 {
		t.Fatal("no balance quarters")
	}
	_ = f10.Text()
	_ = f11.Text()
}

func TestFigure12BitSplit(t *testing.T) {
	d := dataset(t)
	start, end := d.Window()
	f := BuildFigure12(d.Restored, start, end, 90)
	if len(f.Days) == 0 {
		t.Fatal("no sampled days")
	}
	last := len(f.Days) - 1
	// By end-2010, 32-bit allocations exist for RIPE/APNIC/LACNIC.
	if f.Bit32[asn.RIPENCC][last]+f.Bit32[asn.APNIC][last]+f.Bit32[asn.LACNIC][last] == 0 {
		t.Error("no 32-bit allocations by 2010")
	}
	// 16-bit dominates everywhere this early.
	for _, r := range asn.All() {
		if f.Bit32[r][last] > f.Bit16[r][last] {
			t.Errorf("%v: 32-bit (%d) exceeds 16-bit (%d) in 2010",
				r, f.Bit32[r][last], f.Bit16[r][last])
		}
	}
	_ = f.Text()
}

func TestFigure14(t *testing.T) {
	d := dataset(t)
	f := BuildFigure14(d.Admin, 2004, 2010)
	if len(f.Rows) == 0 {
		t.Fatal("no boxplot rows")
	}
	for _, r := range f.Rows {
		if r.Duration.Min > r.Duration.Median || r.Duration.Median > r.Duration.Max {
			t.Errorf("%v %d: malformed five-number summary %+v", r.RIR, r.Year, r.Duration)
		}
	}
	_ = f.Text()
}

func TestSections(t *testing.T) {
	d := dataset(t)
	_, end := d.Window()
	s61 := BuildSection61(d.Joint, end, core.DefaultSquatParams())
	if s61.OneLifeShare < 0.5 {
		t.Errorf("one-op-life share = %v, paper reports 84.1%%", s61.OneLifeShare)
	}
	if !strings.Contains(s61.Text(), "dormant-squat") {
		t.Error("section text incomplete")
	}
	s62 := BuildSection62(d.Joint, d.Truth)
	if s62.Profile.AdminLives == 0 {
		t.Error("no partial-overlap lives")
	}
	_ = s62.Text()
	s63 := BuildSection63(d.Joint)
	if s63.Profile.Lives == 0 {
		t.Error("no unused lives")
	}
	_ = s63.Text()
	s64 := BuildSection64(d.Joint)
	if s64.Profile.ASNsNeverAllocated == 0 {
		t.Error("no never-allocated ASNs")
	}
	_ = s64.Text()
}

func TestTextTableAlignment(t *testing.T) {
	out := textTable("t", []string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %q", lines)
	}
	if !strings.HasPrefix(lines[3], "xxx  y") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestAppendixA16Bit(t *testing.T) {
	d := dataset(t)
	start, end := d.Window()
	a := BuildAppendixA16Bit(d.Restored, start, end)
	total := 0
	for _, r := range asn.All() {
		if a.PerRIR[r].PeakCount < a.EndCounts[r] {
			t.Errorf("%v: peak %d below end count %d", r, a.PerRIR[r].PeakCount, a.EndCounts[r])
		}
		total += a.PerRIR[r].PeakCount
	}
	if a.GlobalPeakCount == 0 || a.GlobalPeakCount > total {
		t.Errorf("global peak %d vs per-RIR sum %d", a.GlobalPeakCount, total)
	}
	if !strings.Contains(a.Text(), "global 16-bit peak") {
		t.Error("text incomplete")
	}
}

func TestExtensionsReport(t *testing.T) {
	d := dataset(t)
	e := BuildExtensions(d.Activity, d.Ops)
	if e.TimeoutOnly == 0 || e.PrefixAware < e.TimeoutOnly {
		t.Errorf("extensions = %+v", e)
	}
	if !strings.Contains(e.Text(), "prefix-aware") {
		t.Error("text incomplete")
	}
}

// TestExperimentsWithoutTruth renders every experiment over the shared
// dataset with its ground truth removed: only s62 reads the truth, and it
// says so instead of printing a share it cannot measure.
func TestExperimentsWithoutTruth(t *testing.T) {
	d := dataset(t)
	bare := *d
	bare.Truth = nil
	for _, e := range Experiments {
		with, without := e.Render(d), e.Render(&bare)
		if e.Name == "s62" {
			if !strings.Contains(without, "no-customer share n/a without ground truth") {
				t.Errorf("s62 without truth:\n%s", without)
			}
			if strings.Contains(with, "n/a") {
				t.Errorf("s62 with truth reports n/a:\n%s", with)
			}
		} else if with != without {
			t.Errorf("%s renders differently without ground truth:\n%s\nvs\n%s", e.Name, with, without)
		}
	}
}
