package intervals

import (
	"testing"

	"parallellives/internal/dates"
)

// These tests poke the interval algebra at its boundaries: empty sets,
// single-day intervals, and spans that touch without overlapping. Bugs
// here would surface as off-by-one-day errors in lifetime taxonomy.

func onDay(s string) dates.Day { return dates.MustParse(s) }

func one(s string) Interval { return New(onDay(s), onDay(s)) }

func TestEmptySetAlgebra(t *testing.T) {
	var empty Set
	full := Normalize([]Interval{{onDay("2010-01-01"), onDay("2010-12-31")}})

	if got := empty.Intersect(full); len(got) != 0 {
		t.Errorf("empty ∩ full = %v, want empty", got)
	}
	if got := full.Intersect(empty); len(got) != 0 {
		t.Errorf("full ∩ empty = %v, want empty", got)
	}
	if got := empty.Gaps(); got != nil {
		t.Errorf("gaps of empty = %v, want nil", got)
	}
	if got := empty.SplitByTimeout(30); got != nil {
		t.Errorf("timeout split of empty = %v, want nil", got)
	}
	if empty.Contains(onDay("2010-06-01")) {
		t.Error("empty set claims to contain a day")
	}
	if empty.TotalDays() != 0 {
		t.Errorf("empty TotalDays = %d", empty.TotalDays())
	}
	if _, ok := empty.Span(); ok {
		t.Error("empty set reports a span")
	}
	if !empty.Valid() {
		t.Error("empty set is not Valid")
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) is not nil")
	}
}

func TestSingleDayIntervals(t *testing.T) {
	iv := one("2010-06-15")
	if iv.Days() != 1 {
		t.Fatalf("single-day interval spans %d days", iv.Days())
	}
	if !iv.Contains(onDay("2010-06-15")) {
		t.Error("single-day interval misses its own day")
	}
	if !iv.Overlaps(iv) {
		t.Error("single-day interval does not overlap itself")
	}

	// A set built purely of isolated days.
	s := Normalize([]Interval{one("2010-01-01"), one("2010-01-03"), one("2010-01-05")})
	if len(s) != 3 || s.TotalDays() != 3 {
		t.Fatalf("isolated days normalized to %v", s)
	}
	if got := s.GapLengths(); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("gap lengths = %v, want [1 1]", got)
	}
	// timeout 0 bridges nothing: three one-day segments survive.
	if got := s.SplitByTimeout(0); len(got) != 3 {
		t.Errorf("timeout 0 split = %v, want 3 segments", got)
	}
	// timeout 1 bridges the one-day gaps into a single segment.
	if got := s.SplitByTimeout(1); len(got) != 1 || got[0] != New(onDay("2010-01-01"), onDay("2010-01-05")) {
		t.Errorf("timeout 1 split = %v, want one 5-day segment", got)
	}
	// A single repeated day collapses.
	if got := Normalize([]Interval{one("2010-01-01"), one("2010-01-01")}); got.TotalDays() != 1 {
		t.Errorf("repeated day compacts to %v", got)
	}
}

// TestTouchingNotOverlapping pins the closed-interval adjacency rules:
// [a,b] and [b+1,c] share no day, but normalization merges them because
// no gap separates them.
func TestTouchingNotOverlapping(t *testing.T) {
	a := New(onDay("2010-01-01"), onDay("2010-01-10"))
	b := New(onDay("2010-01-11"), onDay("2010-01-20"))
	if a.Overlaps(b) || b.Overlaps(a) {
		t.Error("adjacent intervals report overlap")
	}
	if _, ok := a.Intersect(b); ok {
		t.Error("adjacent intervals report a non-empty intersection")
	}

	// Normalizing adjacent spans coalesces them into one interval, no gap.
	u := Normalize([]Interval{a, b})
	if len(u) != 1 || u[0] != New(onDay("2010-01-01"), onDay("2010-01-20")) {
		t.Fatalf("adjacent spans normalize to %v, want one merged interval", u)
	}
	if got := u.Gaps(); got != nil {
		t.Errorf("merged adjacency has gaps %v", got)
	}
	// But set intersection of the two sides stays empty.
	if got := (Set{a}).Intersect(Set{b}); len(got) != 0 {
		t.Errorf("adjacent set intersection = %v, want empty", got)
	}
	// Intersecting the merged run with one side gives back exactly it.
	if got := u.Intersect(Set{b}); !got.Equal(Set{b}) {
		t.Errorf("merged ∩ right = %v, want %v", got, Set{b})
	}

	// Sharing exactly one boundary day IS an overlap of one day.
	c := New(onDay("2010-01-10"), onDay("2010-01-15"))
	if !a.Overlaps(c) {
		t.Error("intervals sharing a boundary day do not overlap")
	}
	if got, ok := a.Intersect(c); !ok || got.Days() != 1 || got.Start != onDay("2010-01-10") {
		t.Errorf("boundary intersection = %v ok=%v, want the single shared day", got, ok)
	}

	// SplitByTimeout at the exact gap length: a ends 01-10, the next run
	// starts 01-21, a ten-day gap. Timeout strictly below keeps the
	// split; timeout equal to the gap bridges it.
	s := Normalize([]Interval{a, {onDay("2010-01-21"), onDay("2010-01-25")}})
	if len(s) != 2 {
		t.Fatalf("ten-day gap merged away: %v", s)
	}
	if got := s.SplitByTimeout(9); len(got) != 2 {
		t.Errorf("9-day timeout over 10-day gap = %v, want 2 segments", got)
	}
	if got := s.SplitByTimeout(10); len(got) != 1 {
		t.Errorf("10-day timeout over 10-day gap = %v, want 1 segment", got)
	}
}
