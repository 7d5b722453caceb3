package intervals

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parallellives/internal/dates"
)

func day(n int) dates.Day { return dates.Day(50000 + n) }

func iv(a, b int) Interval { return Interval{Start: day(a), End: day(b)} }

func TestNewPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for inverted interval")
		}
	}()
	New(day(5), day(4))
}

func TestIntervalBasics(t *testing.T) {
	a := iv(10, 20)
	if a.Days() != 11 {
		t.Errorf("Days = %d, want 11", a.Days())
	}
	if !a.Contains(day(10)) || !a.Contains(day(20)) || a.Contains(day(21)) || a.Contains(day(9)) {
		t.Error("Contains wrong at boundaries")
	}
	if !a.Overlaps(iv(20, 30)) || a.Overlaps(iv(21, 30)) {
		t.Error("Overlaps wrong at boundary")
	}
	if !a.ContainsInterval(iv(10, 20)) || a.ContainsInterval(iv(10, 21)) {
		t.Error("ContainsInterval wrong")
	}
	x, ok := a.Intersect(iv(15, 30))
	if !ok || x != iv(15, 20) {
		t.Errorf("Intersect = %v, %v", x, ok)
	}
	if _, ok := a.Intersect(iv(25, 30)); ok {
		t.Error("Intersect of disjoint should be empty")
	}
}

func TestNormalize(t *testing.T) {
	s := Normalize([]Interval{iv(10, 12), iv(14, 16), iv(13, 13), iv(30, 35), iv(31, 32)})
	want := Set{iv(10, 16), iv(30, 35)}
	if !s.Equal(want) {
		t.Errorf("Normalize = %v, want %v", s, want)
	}
	if !s.Valid() {
		t.Error("Normalize result invalid")
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) should be nil")
	}
}

func TestSetOps(t *testing.T) {
	a := Normalize([]Interval{iv(0, 10), iv(20, 30)})
	b := Normalize([]Interval{iv(5, 25), iv(40, 45)})

	if got := a.Intersect(b); !got.Equal(Set{iv(5, 10), iv(20, 25)}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := b.Intersect(a); !got.Equal(Set{iv(5, 10), iv(20, 25)}) {
		t.Errorf("Intersect reverse = %v", got)
	}
}

func TestGapsAndCoverage(t *testing.T) {
	s := Set{iv(0, 9), iv(20, 29), iv(40, 49)}
	gaps := s.Gaps()
	if len(gaps) != 2 || gaps[0] != iv(10, 19) || gaps[1] != iv(30, 39) {
		t.Errorf("Gaps = %v", gaps)
	}
	gl := s.GapLengths()
	if len(gl) != 2 || gl[0] != 10 || gl[1] != 10 {
		t.Errorf("GapLengths = %v", gl)
	}
	if n := s.TotalDays(); n != 30 {
		t.Errorf("TotalDays = %d, want 30 covered days", n)
	}
}

func TestContainsBinarySearch(t *testing.T) {
	s := Set{iv(0, 9), iv(20, 29), iv(40, 49)}
	for n := -5; n < 60; n++ {
		want := (n >= 0 && n <= 9) || (n >= 20 && n <= 29) || (n >= 40 && n <= 49)
		if got := s.Contains(day(n)); got != want {
			t.Errorf("Contains(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSplitByTimeout(t *testing.T) {
	// Activity runs with gaps of 5, 30 and 31 days.
	s := Set{iv(0, 10), iv(16, 20), iv(51, 60), iv(92, 95)}
	// timeout 30: gap of 5 bridged, gap of 30 bridged, gap of 31 splits.
	got := s.SplitByTimeout(30)
	if len(got) != 2 || got[0] != iv(0, 60) || got[1] != iv(92, 95) {
		t.Errorf("SplitByTimeout(30) = %v", got)
	}
	// timeout 4: all gaps split.
	got = s.SplitByTimeout(4)
	if len(got) != 4 {
		t.Errorf("SplitByTimeout(4) = %v", got)
	}
	// timeout large: single segment.
	got = s.SplitByTimeout(1000)
	if len(got) != 1 || got[0] != iv(0, 95) {
		t.Errorf("SplitByTimeout(1000) = %v", got)
	}
	if Set(nil).SplitByTimeout(30) != nil {
		t.Error("empty set should split to nil")
	}
}

func TestSpan(t *testing.T) {
	s := Set{iv(5, 9), iv(20, 29)}
	sp, ok := s.Span()
	if !ok || sp != iv(5, 29) {
		t.Errorf("Span = %v, %v", sp, ok)
	}
	if _, ok := Set(nil).Span(); ok {
		t.Error("empty span should be not-ok")
	}
}

// randomSet builds a small random set out of up to 40 single days, in
// no particular order and with repeats, for the property tests.
func randomSet(r *rand.Rand) Set {
	ivs := make([]Interval, r.Intn(40))
	for i := range ivs {
		d := day(r.Intn(120))
		ivs[i] = Interval{Start: d, End: d}
	}
	return Normalize(ivs)
}

func TestQuickAlgebraLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	// For sets built from day lists, intersection must agree with the
	// equivalent day-by-day boolean operation.
	f := func(seedA, seedB int64) bool {
		ra, rb := rand.New(rand.NewSource(seedA)), rand.New(rand.NewSource(seedB))
		a, b := randomSet(ra), randomSet(rb)
		if !a.Valid() || !b.Valid() {
			return false
		}
		x := a.Intersect(b)
		if !x.Valid() || !x.Equal(b.Intersect(a)) {
			return false
		}
		both := 0
		for n := -1; n <= 121; n++ {
			d := day(n)
			want := a.Contains(d) && b.Contains(d)
			if x.Contains(d) != want {
				return false
			}
			if want {
				both++
			}
		}
		return x.TotalDays() == both
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitByTimeoutCoversSameSpanDays(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64, timeoutRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r)
		timeout := int(timeoutRaw % 40)
		segs := s.SplitByTimeout(timeout)
		// Segments must be ordered, disjoint, each containing at least one
		// original covered day at both ends, with inter-segment gaps
		// strictly greater than the timeout.
		for i, sg := range segs {
			if !s.Contains(sg.Start) || !s.Contains(sg.End) {
				return false
			}
			if i > 0 {
				gap := sg.Start.Sub(segs[i-1].End) - 1
				if gap <= timeout {
					return false
				}
			}
		}
		// Union of segments must cover every original day.
		cover := Normalize(segs)
		for _, ivl := range s {
			for d := ivl.Start; d <= ivl.End; d++ {
				if !cover.Contains(d) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
