package dates

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKnownDates(t *testing.T) {
	cases := []struct {
		y, m, d int
		mjd     Day
	}{
		{1858, 11, 17, 0},
		{1858, 11, 18, 1},
		{1970, 1, 1, 40587},
		{2000, 1, 1, 51544},
		{2003, 10, 9, 52921},
		{2021, 3, 1, 59274},
	}
	for _, c := range cases {
		if got := FromYMD(c.y, c.m, c.d); got != c.mjd {
			t.Errorf("FromYMD(%d,%d,%d) = %d, want %d", c.y, c.m, c.d, got, c.mjd)
		}
		y, m, d := c.mjd.YMD()
		if y != c.y || m != c.m || d != c.d {
			t.Errorf("YMD(%d) = %d-%d-%d, want %d-%d-%d", c.mjd, y, m, d, c.y, c.m, c.d)
		}
	}
}

func TestPaperTimeframeSpan(t *testing.T) {
	start := MustParse("2003-10-09")
	end := MustParse("2021-03-01")
	if got := end.Sub(start); got != 6353 {
		t.Errorf("paper time frame spans %d days, want 6353", got)
	}
}

func TestRoundTripAgainstTimePackage(t *testing.T) {
	// Walk every day across the paper's range plus margins and compare
	// with the standard library's calendar.
	start := time.Date(1980, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20000; i += 1 {
		tm := start.AddDate(0, 0, i)
		d := FromYMD(tm.Year(), int(tm.Month()), tm.Day())
		y, m, dd := d.YMD()
		if y != tm.Year() || m != int(tm.Month()) || dd != tm.Day() {
			t.Fatalf("mismatch at %v: got %d-%d-%d", tm, y, m, dd)
		}
		if d.Unix() != tm.Unix() {
			t.Fatalf("Unix mismatch at %v: got %d want %d", tm, d.Unix(), tm.Unix())
		}
		if FromUnix(tm.Unix()) != d {
			t.Fatalf("FromUnix mismatch at %v", tm)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		d := Day(20000 + n%40000) // years ~1913..2022
		y, m, dd := d.YMD()
		return FromYMD(y, m, dd) == d && Valid(y, m, dd)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnixRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		d := Day(30000 + n%40000)
		return FromUnix(d.Unix()) == d && FromUnix(d.Unix()+86399) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParse(t *testing.T) {
	d, err := Parse("2017-09-20")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "2017-09-20" {
		t.Errorf("String() = %q", d.String())
	}
	if d.Compact() != "20170920" {
		t.Errorf("Compact() = %q", d.Compact())
	}
	if _, err := Parse("2017-9-20"); err == nil {
		t.Error("expected error for short month")
	}
	if _, err := Parse("2017-13-01"); err == nil {
		t.Error("expected error for month 13")
	}
	if _, err := Parse("2017-02-29"); err == nil {
		t.Error("expected error for Feb 29 in non-leap year")
	}
	if _, err := Parse("2016-02-29"); err != nil {
		t.Error("2016-02-29 is valid (leap year)")
	}
}

func TestParseCompact(t *testing.T) {
	d, err := ParseCompact("19930901")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "1993-09-01" {
		t.Errorf("got %s", d)
	}
	d, err = ParseCompact("00000000")
	if err != nil || d != None {
		t.Errorf("placeholder should parse to None, got %v, %v", d, err)
	}
	if _, err := ParseCompact("2021031"); err == nil {
		t.Error("expected error for 7-digit date")
	}
	if _, err := ParseCompact("20210231"); err == nil {
		t.Error("expected error for Feb 31")
	}
}

func TestNoneString(t *testing.T) {
	if None.String() != "-" {
		t.Errorf("None.String() = %q", None.String())
	}
	if None.Compact() != "00000000" {
		t.Errorf("None.Compact() = %q", None.Compact())
	}
}

// TestStringMatchesFmt: String renders every day as fmt's %04d-%02d-%02d
// of its civil date would, at the edges of the four-digit years and
// beyond them, and None as "-".
func TestStringMatchesFmt(t *testing.T) {
	want := func(d Day) string {
		if d == None {
			return "-"
		}
		y, m, dd := d.YMD()
		return fmt.Sprintf("%04d-%02d-%02d", y, m, dd)
	}
	days := []Day{None, 0, math.MinInt32, math.MaxInt32, None + 1, None - 1,
		FromYMD(0, 1, 1) - 1, FromYMD(0, 1, 1), FromYMD(9, 9, 9), FromYMD(999, 12, 31),
		FromYMD(1000, 1, 1), FromYMD(9999, 12, 31), FromYMD(9999, 12, 31) + 1, FromYMD(-1, 6, 15)}
	for d := FromYMD(1850, 1, 1); d <= FromYMD(2100, 12, 31); d++ {
		days = append(days, d)
	}
	for _, d := range days {
		if got := d.String(); got != want(d) {
			t.Errorf("Day(%d).String() = %q, want %q", int32(d), got, want(d))
		}
	}
}

func TestQuarter(t *testing.T) {
	d := MustParse("2014-05-10")
	if q := d.Quarter(); q != 2014*4+1 {
		t.Errorf("Quarter = %d", q)
	}
	if QuarterStart(2014*4+1) != MustParse("2014-04-01") {
		t.Errorf("QuarterStart wrong: %s", QuarterStart(2014*4+1))
	}
	// Quarter boundaries.
	if MustParse("2014-03-31").Quarter() == MustParse("2014-04-01").Quarter() {
		t.Error("Q1/Q2 boundary not detected")
	}
	if MustParse("2013-12-31").Quarter()+1 != MustParse("2014-01-01").Quarter() {
		t.Error("year boundary quarters not consecutive")
	}
}

func TestMinMax(t *testing.T) {
	a, b := MustParse("2010-01-01"), MustParse("2011-01-01")
	if Min(a, b) != a || Min(b, a) != a || Max(a, b) != b || Max(b, a) != b {
		t.Error("Min/Max broken")
	}
}

func TestAddSub(t *testing.T) {
	a := MustParse("2020-02-28")
	if a.AddDays(1).String() != "2020-02-29" {
		t.Error("leap day add failed")
	}
	if a.AddDays(2).String() != "2020-03-01" {
		t.Error("leap rollover failed")
	}
	if a.AddDays(2).Sub(a) != 2 {
		t.Error("Sub failed")
	}
	if !a.Before(a.AddDays(1)) || !a.AddDays(1).After(a) {
		t.Error("Before/After failed")
	}
}
