// Package intervals implements closed day-interval sets.
//
// Both the administrative and the operational life of an ASN are unions of
// day intervals, and the paper's joint analysis (§6) is interval algebra:
// containment, overlap, intersection and gaps. Intervals are closed on
// both ends — an allocation that starts and ends on the same day lasted
// one day — which matches the day granularity of delegation files and of
// daily BGP activity.
package intervals

import (
	"fmt"
	"sort"

	"parallellives/internal/dates"
)

// Interval is a closed range of days [Start, End], End >= Start.
type Interval struct {
	Start, End dates.Day
}

// New returns the closed interval [start, end]; it panics if end < start,
// which always indicates a programming error upstream.
func New(start, end dates.Day) Interval {
	if end < start {
		panic(fmt.Sprintf("intervals: end %s before start %s", end, start))
	}
	return Interval{Start: start, End: end}
}

// Days returns the number of days covered (inclusive of both ends).
func (iv Interval) Days() int { return iv.End.Sub(iv.Start) + 1 }

// Contains reports whether day d falls within the interval.
func (iv Interval) Contains(d dates.Day) bool { return d >= iv.Start && d <= iv.End }

// ContainsInterval reports whether other lies entirely within iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	return other.Start >= iv.Start && other.End <= iv.End
}

// Overlaps reports whether iv and other share at least one day.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start <= other.End && other.Start <= iv.End
}

// Intersect returns the overlap of two intervals and whether it is non-empty.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	s := dates.Max(iv.Start, other.Start)
	e := dates.Min(iv.End, other.End)
	if e < s {
		return Interval{}, false
	}
	return Interval{Start: s, End: e}, true
}

// String renders the interval as "start..end".
func (iv Interval) String() string {
	return iv.Start.String() + ".." + iv.End.String()
}

// Set is a normalized sequence of intervals: sorted by Start, pairwise
// disjoint, and non-adjacent (adjacent intervals are merged). The zero
// value is an empty set ready to use.
type Set []Interval

// Normalize sorts and coalesces an arbitrary interval slice into a Set.
// Overlapping and adjacent (gap of zero days) intervals are merged.
func Normalize(ivs []Interval) Set {
	if len(ivs) == 0 {
		return nil
	}
	s := make([]Interval, len(ivs))
	copy(s, ivs)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		return s[i].End < s[j].End
	})
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End+1 { // overlapping or adjacent
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return Set(out)
}

// Contains reports whether any interval in the set covers day d.
func (s Set) Contains(d dates.Day) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].End >= d })
	return i < len(s) && s[i].Contains(d)
}

// TotalDays returns the number of distinct days covered by the set.
func (s Set) TotalDays() int {
	n := 0
	for _, iv := range s {
		n += iv.Days()
	}
	return n
}

// Span returns the interval from the first covered day to the last, and
// false if the set is empty.
func (s Set) Span() (Interval, bool) {
	if len(s) == 0 {
		return Interval{}, false
	}
	return Interval{Start: s[0].Start, End: s[len(s)-1].End}, true
}

// Intersect returns the set of days covered by both sets.
func (s Set) Intersect(other Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		if iv, ok := s[i].Intersect(other[j]); ok {
			out = append(out, iv)
		}
		if s[i].End < other[j].End {
			i++
		} else {
			j++
		}
	}
	return Set(out)
}

// Gaps returns the maximal uncovered intervals strictly between covered
// intervals of the set (not the open space before the first or after the
// last interval).
func (s Set) Gaps() []Interval {
	if len(s) < 2 {
		return nil
	}
	out := make([]Interval, 0, len(s)-1)
	for i := 1; i < len(s); i++ {
		out = append(out, Interval{Start: s[i-1].End + 1, End: s[i].Start - 1})
	}
	return out
}

// SplitByTimeout re-segments the set using an inactivity timeout: runs
// separated by a gap of strictly more than timeout days are distinct
// segments, while smaller gaps are bridged. This implements the paper's
// §4.2 rule: "an ASN starts a new operational lifespan only if it
// reappears in BGP after > timeout days of inactivity." It is the only
// implementation of that rule: every operational-lifetime builder in
// core segments through it.
func (s Set) SplitByTimeout(timeout int) []Interval {
	if len(s) == 0 {
		return nil
	}
	out := make([]Interval, 0, len(s))
	cur := s[0]
	for _, iv := range s[1:] {
		gap := iv.Start.Sub(cur.End) - 1
		if gap > timeout {
			out = append(out, cur)
			cur = iv
		} else {
			cur.End = iv.End
		}
	}
	out = append(out, cur)
	return out
}

// GapLengths returns the lengths, in days, of all gaps in the set.
func (s Set) GapLengths() []int {
	gaps := s.Gaps()
	out := make([]int, len(gaps))
	for i, g := range gaps {
		out[i] = g.Days()
	}
	return out
}

// Equal reports whether two sets cover exactly the same days.
func (s Set) Equal(other Set) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Valid reports whether the set upholds its normalization invariants.
// Intended for tests and debugging.
func (s Set) Valid() bool {
	for i, iv := range s {
		if iv.End < iv.Start {
			return false
		}
		if i > 0 && iv.Start <= s[i-1].End+1 {
			return false
		}
	}
	return true
}
