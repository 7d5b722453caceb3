package core

import (
	"slices"
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/intervals"
)

// DefaultInactivityTimeout is the paper's operational-lifetime timeout:
// an ASN starts a new operational life only after more than 30 days of
// BGP inactivity (§4.2).
const DefaultInactivityTimeout = 30

// OpLifetime is one operational life of an ASN.
type OpLifetime struct {
	ASN  asn.ASN
	Span intervals.Interval
}

// OpIndex holds the operational lifetimes and the underlying activity.
type OpIndex struct {
	Timeout   int
	Lifetimes []OpLifetime
	Activity  *bgpscan.Activity
	byASN     map[asn.ASN][]int
}

// BuildOpLifetimes segments each ASN's activity days into operational
// lifetimes using the inactivity timeout, ASNs in ascending order. The
// §4.2 rule itself lives in intervals.Set.SplitByTimeout and nowhere
// else.
func BuildOpLifetimes(act *bgpscan.Activity, timeout int) *OpIndex {
	asns := sortedASNs(act)
	idx := &OpIndex{
		Timeout:   timeout,
		Activity:  act,
		Lifetimes: make([]OpLifetime, 0, len(asns)),
		byASN:     make(map[asn.ASN][]int, len(asns)),
	}
	for _, a := range asns {
		for _, seg := range act.ASNs[a].Days.SplitByTimeout(timeout) {
			idx.Lifetimes = append(idx.Lifetimes, OpLifetime{ASN: a, Span: seg})
		}
	}
	// Lifetimes are ASN-sorted, so each ASN's indices are one contiguous
	// run: the per-ASN index slices all view one shared sequential array
	// instead of growing a small slice per ASN.
	seq := make([]int, len(idx.Lifetimes))
	for i := 0; i < len(seq); {
		j := i
		for ; j < len(seq) && idx.Lifetimes[j].ASN == idx.Lifetimes[i].ASN; j++ {
			seq[j] = j
		}
		idx.byASN[idx.Lifetimes[i].ASN] = seq[i:j:j]
		i = j
	}
	return idx
}

// sortedASNs returns the ASNs of act in ascending order — the iteration
// order every lifetime builder uses, so indices do not depend on map order.
func sortedASNs(act *bgpscan.Activity) []asn.ASN {
	asns := make([]asn.ASN, 0, len(act.ASNs))
	for a := range act.ASNs {
		asns = append(asns, a)
	}
	slices.Sort(asns)
	return asns
}

// Of returns the operational lifetime indices of an ASN in time order.
func (idx *OpIndex) Of(a asn.ASN) []int { return idx.byASN[a] }

// ASNs returns the number of distinct ASNs with at least one lifetime.
func (idx *OpIndex) ASNs() int { return len(idx.byASN) }

// GapDistribution returns every per-ASN activity gap length (in days)
// across the raw activity — the red CDF of Figure 3.
func GapDistribution(act *bgpscan.Activity) []int {
	var out []int
	for _, aa := range act.ASNs {
		out = append(out, aa.Days.GapLengths()...)
	}
	sort.Ints(out)
	return out
}

// TimeoutSensitivity evaluates one candidate timeout value for Figure 3
// and Table 5.
type TimeoutSensitivity struct {
	Timeout int
	// GapFractionBelow is the fraction of activity gaps with length <=
	// Timeout (the red CDF evaluated at the timeout).
	GapFractionBelow float64
	// AdminWithOneOrLessOpLives is the fraction of administrative
	// lifetimes containing at most one operational life under this
	// timeout (the blue dotted CDF).
	AdminWithOneOrLessOpLives float64
	// OpLifetimes is the total operational lifetime count.
	OpLifetimes int
}

// SweepTimeouts computes the Figure 3 series for each candidate timeout.
// admin supplies the administrative lifetimes used by the blue curve.
func SweepTimeouts(act *bgpscan.Activity, admin *AdminIndex, timeouts []int) []TimeoutSensitivity {
	gaps := GapDistribution(act)
	out := make([]TimeoutSensitivity, 0, len(timeouts))
	for _, to := range timeouts {
		idx := BuildOpLifetimes(act, to)
		below := sort.SearchInts(gaps, to+1)
		frac := 0.0
		if len(gaps) > 0 {
			frac = float64(below) / float64(len(gaps))
		}
		out = append(out, TimeoutSensitivity{
			Timeout:                   to,
			GapFractionBelow:          frac,
			AdminWithOneOrLessOpLives: fractionAdminWithAtMostOneOpLife(admin, idx),
			OpLifetimes:               len(idx.Lifetimes),
		})
	}
	return out
}

// fractionAdminWithAtMostOneOpLife computes the blue dotted curve of
// Figure 3: the share of administrative lifetimes containing one or no
// operational lifetimes.
func fractionAdminWithAtMostOneOpLife(admin *AdminIndex, ops *OpIndex) float64 {
	if len(admin.Lifetimes) == 0 {
		return 0
	}
	good := 0
	for _, al := range admin.Lifetimes {
		contained := 0
		for _, oi := range ops.Of(al.ASN) {
			if al.Span.ContainsInterval(ops.Lifetimes[oi].Span) {
				contained++
				if contained > 1 {
					break
				}
			}
		}
		if contained <= 1 {
			good++
		}
	}
	return float64(good) / float64(len(admin.Lifetimes))
}
