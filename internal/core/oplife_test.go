package core

import (
	"math/rand"
	"reflect"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/intervals"
)

// TestOpLifetimeTimeoutBoundary pins the §4.2 rule on the path the
// pipeline runs (BuildOpLifetimes, not SplitByTimeout directly): a gap of
// exactly timeout inactive days is bridged, a gap of timeout+1 days
// starts a new operational life. Every date is a literal, so a flipped
// comparison cannot hide behind date arithmetic shared with the code.
func TestOpLifetimeTimeoutBoundary(t *testing.T) {
	type life struct {
		a        asn.ASN
		from, to string
	}
	// Per timeout: ASN 1 has two multi-day runs exactly timeout days
	// apart, ASN 2 the same runs one day further apart; ASNs 3 and 4
	// repeat that with a single-day run on each side of the gap; ASN 5
	// has one interval.
	for _, tc := range []struct {
		timeout int
		runs    map[asn.ASN][]intervals.Interval
		want    []life
	}{
		{
			timeout: 15,
			runs: map[asn.ASN][]intervals.Interval{
				1: {iv("2010-01-01", "2010-01-10"), iv("2010-01-26", "2010-02-05")},
				2: {iv("2010-01-01", "2010-01-10"), iv("2010-01-27", "2010-02-05")},
				3: {iv("2010-06-15", "2010-06-15"), iv("2010-07-01", "2010-07-01")},
				4: {iv("2010-06-15", "2010-06-15"), iv("2010-07-02", "2010-07-02")},
				5: {iv("2011-01-01", "2011-12-31")},
			},
			want: []life{
				{1, "2010-01-01", "2010-02-05"},
				{2, "2010-01-01", "2010-01-10"}, {2, "2010-01-27", "2010-02-05"},
				{3, "2010-06-15", "2010-07-01"},
				{4, "2010-06-15", "2010-06-15"}, {4, "2010-07-02", "2010-07-02"},
				{5, "2011-01-01", "2011-12-31"},
			},
		},
		{
			timeout: 30,
			runs: map[asn.ASN][]intervals.Interval{
				1: {iv("2010-01-01", "2010-01-10"), iv("2010-02-10", "2010-02-20")},
				2: {iv("2010-01-01", "2010-01-10"), iv("2010-02-11", "2010-02-20")},
				3: {iv("2010-06-15", "2010-06-15"), iv("2010-07-16", "2010-07-16")},
				4: {iv("2010-06-15", "2010-06-15"), iv("2010-07-17", "2010-07-17")},
				5: {iv("2011-01-01", "2011-12-31")},
			},
			want: []life{
				{1, "2010-01-01", "2010-02-20"},
				{2, "2010-01-01", "2010-01-10"}, {2, "2010-02-11", "2010-02-20"},
				{3, "2010-06-15", "2010-07-16"},
				{4, "2010-06-15", "2010-06-15"}, {4, "2010-07-17", "2010-07-17"},
				{5, "2011-01-01", "2011-12-31"},
			},
		},
		{
			timeout: 50,
			runs: map[asn.ASN][]intervals.Interval{
				1: {iv("2010-01-01", "2010-01-10"), iv("2010-03-02", "2010-03-12")},
				2: {iv("2010-01-01", "2010-01-10"), iv("2010-03-03", "2010-03-12")},
				3: {iv("2010-06-15", "2010-06-15"), iv("2010-08-05", "2010-08-05")},
				4: {iv("2010-06-15", "2010-06-15"), iv("2010-08-06", "2010-08-06")},
				5: {iv("2011-01-01", "2011-12-31")},
			},
			want: []life{
				{1, "2010-01-01", "2010-03-12"},
				{2, "2010-01-01", "2010-01-10"}, {2, "2010-03-03", "2010-03-12"},
				{3, "2010-06-15", "2010-08-05"},
				{4, "2010-06-15", "2010-06-15"}, {4, "2010-08-06", "2010-08-06"},
				{5, "2011-01-01", "2011-12-31"},
			},
		},
	} {
		act := buildActivity(tc.runs)
		// The table itself must sit on the boundary it claims to.
		for a, gap := range map[asn.ASN]int{1: tc.timeout, 2: tc.timeout + 1, 3: tc.timeout, 4: tc.timeout + 1} {
			if got := act.ASNs[a].Days.GapLengths(); len(got) != 1 || got[0] != gap {
				t.Fatalf("timeout %d: table row for AS%d has gaps %v, want one of %d days", tc.timeout, a, got, gap)
			}
		}

		ops := BuildOpLifetimes(act, tc.timeout)
		want := make([]OpLifetime, len(tc.want))
		for i, l := range tc.want {
			want[i] = OpLifetime{ASN: l.a, Span: iv(l.from, l.to)}
		}
		if !reflect.DeepEqual(ops.Lifetimes, want) {
			t.Errorf("timeout %d: lifetimes\n got %v\nwant %v", tc.timeout, ops.Lifetimes, want)
		}
		for a, n := range map[asn.ASN]int{1: 1, 2: 2, 3: 1, 4: 2, 5: 1} {
			if got := len(ops.Of(a)); got != n {
				t.Errorf("timeout %d: AS%d has %d operational lives, want %d", tc.timeout, a, got, n)
			}
		}
	}
}

func TestGapDistributionLiteral(t *testing.T) {
	act := buildActivity(map[asn.ASN][]intervals.Interval{
		// Gaps of 1 and 31 days.
		10: {iv("2012-03-01", "2012-03-01"), iv("2012-03-03", "2012-03-31"), iv("2012-05-02", "2012-05-09")},
		// One interval: no gap.
		11: {iv("2012-01-01", "2012-12-31")},
		// Across a leap day: 2012-02-20 → 2012-03-10 leaves 18 days uncovered.
		12: {iv("2012-02-01", "2012-02-20"), iv("2012-03-10", "2012-03-11")},
		// A year apart: 2013-01-01 → 2014-01-01 leaves 364 days.
		13: {iv("2013-01-01", "2013-01-01"), iv("2014-01-01", "2014-01-01")},
	})
	if got, want := GapDistribution(act), []int{1, 18, 31, 364}; !reflect.DeepEqual(got, want) {
		t.Errorf("GapDistribution = %v, want %v", got, want)
	}
	if got := GapDistribution(buildActivity(nil)); len(got) != 0 {
		t.Errorf("GapDistribution of an empty activity = %v", got)
	}
}

// TestOpIndexOf requires every ASN's Of list to name exactly its own
// lifetimes, in time order, and an ASN with no activity day to have none.
func TestOpIndexOf(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	runs := make(map[asn.ASN][]intervals.Interval)
	for a := asn.ASN(64500); a < 64561; a++ {
		day := d("2005-01-01").AddDays(rng.Intn(400))
		for n := rng.Intn(9); n > 0; n-- {
			end := day.AddDays(rng.Intn(90))
			runs[a] = append(runs[a], intervals.New(day, end))
			day = end.AddDays(2 + rng.Intn(70))
		}
	}
	act := buildActivity(runs)
	act.ASNs[64999] = &bgpscan.ASNActivity{} // seen in no RIB: no days, no lifetime

	idx := BuildOpLifetimes(act, DefaultInactivityTimeout)
	if len(idx.Lifetimes) < len(runs) || idx.Of(64999) != nil {
		t.Fatalf("%d lifetimes for %d ASNs, AS64999 → %v", len(idx.Lifetimes), len(runs), idx.Of(64999))
	}
	listed := 0
	for a := range act.ASNs {
		of := idx.Of(a)
		listed += len(of)
		for k, i := range of {
			if idx.Lifetimes[i].ASN != a {
				t.Errorf("Of(%v)[%d] = %d, a lifetime of %v", a, k, i, idx.Lifetimes[i].ASN)
			}
			if k > 0 && idx.Lifetimes[of[k-1]].Span.End >= idx.Lifetimes[i].Span.Start {
				t.Errorf("Of(%v) = %v is not in time order", a, of)
			}
		}
	}
	if listed != len(idx.Lifetimes) {
		t.Errorf("Of lists %d lifetimes in total, the index holds %d", listed, len(idx.Lifetimes))
	}
}
