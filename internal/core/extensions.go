package core

import (
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
)

// This file implements the extensions the paper sketches in §8/§9 beyond
// the headline methodology: prefix-aware operational lifetimes and the
// origination/transit role split.

// BuildOpLifetimesPrefixAware segments activity like BuildOpLifetimes but
// additionally starts a new operational life across a bridged gap when
// the originated prefix set changed over the gap — the §8 refinement:
// "using prefixes, we could consider both the inactivity period and the
// prefixes announced by the ASN to decide whether to start a new
// operational lifespan." Gaps shorter than minGapDays never split, so
// transient flaps with routine prefix churn are not over-segmented;
// pure-transit spans (no originations on either side) fall back to the
// timeout rule.
func BuildOpLifetimesPrefixAware(act *bgpscan.Activity, timeout, minGapDays int) *OpIndex {
	idx := &OpIndex{
		Timeout:  timeout,
		Activity: act,
		byASN:    make(map[asn.ASN][]int, len(act.ASNs)),
	}
	for _, a := range sortedASNs(act) {
		aa := act.ASNs[a]
		segs := aa.Days.SplitByTimeout(timeout)
		segs = splitOnPrefixTurnover(aa, segs, minGapDays)
		for _, seg := range segs {
			idx.byASN[a] = append(idx.byASN[a], len(idx.Lifetimes))
			idx.Lifetimes = append(idx.Lifetimes, OpLifetime{ASN: a, Span: seg})
		}
	}
	return idx
}

// splitOnPrefixTurnover re-splits each timeout-bridged lifetime at the
// interior activity gaps of at least minGapDays across which the
// origination signature changed (with originations on both sides).
func splitOnPrefixTurnover(aa *bgpscan.ASNActivity, segs []intervals.Interval, minGapDays int) []intervals.Interval {
	if len(aa.PrefixRuns) < 2 {
		return segs
	}
	var out []intervals.Interval
	for _, seg := range segs {
		cur := seg
		for _, gap := range aa.Days.Gaps() {
			if gap.Start <= cur.Start || gap.End >= cur.End || gap.Days() < minGapDays {
				continue
			}
			before := originSigOn(aa, gap.Start.AddDays(-1))
			after := originSigOn(aa, gap.End.AddDays(1))
			if before != 0 && after != 0 && before != after {
				out = append(out, intervals.New(cur.Start, gap.Start.AddDays(-1)))
				cur = intervals.New(gap.End.AddDays(1), cur.End)
			}
		}
		out = append(out, cur)
	}
	return out
}

// originSigOn returns the origination signature on day d, or 0 when the
// ASN originated nothing that day.
func originSigOn(aa *bgpscan.ASNActivity, d dates.Day) uint64 {
	i := sort.Search(len(aa.PrefixRuns), func(i int) bool { return aa.PrefixRuns[i].To >= d })
	if i < len(aa.PrefixRuns) && aa.PrefixRuns[i].From <= d {
		return aa.PrefixRuns[i].Sig
	}
	return 0
}

// RoleProfile is the §9 origination/transit breakdown of operational
// lifetimes.
type RoleProfile struct {
	// OriginOnly lifetimes originated prefixes on every visible day;
	// TransitOnly never originated; Mixed did both.
	OriginOnly, TransitOnly, Mixed int
	// TransitDaysShare is the overall fraction of visible ASN-days with
	// no origination.
	TransitDaysShare float64
}

// Roles classifies every operational lifetime by origination behaviour.
func (idx *OpIndex) Roles() RoleProfile {
	var p RoleProfile
	var visibleDays, transitDays int64
	for _, ol := range idx.Lifetimes {
		aa := idx.Activity.ASNs[ol.ASN]
		if aa == nil {
			continue
		}
		lifeDays := aa.Days.Intersect(intervals.Set{ol.Span})
		origin := aa.OriginDays.Intersect(intervals.Set{ol.Span})
		ld, od := lifeDays.TotalDays(), origin.TotalDays()
		visibleDays += int64(ld)
		transitDays += int64(ld - od)
		switch {
		case od == 0:
			p.TransitOnly++
		case od == ld:
			p.OriginOnly++
		default:
			p.Mixed++
		}
	}
	if visibleDays > 0 {
		p.TransitDaysShare = float64(transitDays) / float64(visibleDays)
	}
	return p
}
