// Package core implements the paper's primary contribution: the
// construction of administrative and operational ASN lifetimes (§4) and
// their joint analysis (§5, §6) — the taxonomy of overlap behaviours,
// the utilization measures, and the detectors for dormant-ASN squatting,
// dangling announcements, fat-finger misconfigurations and internal-ASN
// leaks.
package core

import (
	"context"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/restore"
)

// AdminLifetime is one administrative life of an ASN per the §4.1 rules:
// a maximal span over which the ASN was continuously held by the same
// organization, merging across reserved quarantines and registry
// transfers when the registration date (or the AfriNIC exception, or a
// contiguous inter-RIR transfer) says the holder did not change.
type AdminLifetime struct {
	ASN asn.ASN
	// RIR is the registry holding the ASN at the end of the lifetime
	// (the destination registry for transferred ASNs).
	RIR      asn.RIR
	CC       string
	OpaqueID string
	RegDate  dates.Day
	Span     intervals.Interval
	// Open marks lifetimes still allocated in the last file scanned.
	Open bool
	// Transferred marks lifetimes that crossed registries.
	Transferred bool
	// Pieces counts the delegated runs merged into this lifetime.
	Pieces int
}

// Is32Bit reports whether the lifetime concerns a 32-bit AS number.
func (l AdminLifetime) Is32Bit() bool { return l.ASN.Is32Bit() }

// AdminStats counts merge decisions, for reporting and tests.
type AdminStats struct {
	Lifetimes           int
	ASNs                int
	MergedSameRegDate   int // reserved/disappeared spans rejoined (§4.1)
	MergedAfriNIC       int // AfriNIC reserved→allocated exception
	MergedTransfers     int // contiguous inter-RIR transfers
	SplitNewRegDate     int // reallocation detected by a new date
	InterRIRTransfers   int
	ReallocatedASNs     int // ASNs with more than one lifetime
	OpenLifetimes       int
	TotalDelegatedRuns  int
	ReservedRunsSkipped int
}

// BuildAdminLifetimes applies the §4.1 rules to the restored status runs.
func BuildAdminLifetimes(res *restore.Result) ([]AdminLifetime, AdminStats) {
	out, stats, _ := BuildAdminLifetimesParallelContext(context.Background(), res, 1)
	return out, stats
}

// runScratch holds the reusable per-group partitions of appendLifetimes.
// One scratch serves one goroutine's group loop: nothing built from it
// outlives the call, so the backing arrays are recycled group to group.
type runScratch struct {
	delegated []restore.Run
	reserved  []restore.Run
}

// appendLifetimes merges one ASN's runs into lifetimes.
func appendLifetimes(out []AdminLifetime, group []restore.Run, stats *AdminStats, sc *runScratch) []AdminLifetime {
	// Select delegated runs in time order; keep reserved runs for the
	// AfriNIC exception test.
	delegated := sc.delegated[:0]
	reserved := sc.reserved[:0]
	for _, r := range group {
		if r.Delegated() {
			delegated = append(delegated, r)
			stats.TotalDelegatedRuns++
		} else {
			reserved = append(reserved, r)
			stats.ReservedRunsSkipped++
		}
	}
	sc.delegated, sc.reserved = delegated[:0], reserved[:0]
	if len(delegated) == 0 {
		return out
	}

	cur := lifetimeFromRun(delegated[0])
	for _, r := range delegated[1:] {
		if mergeReason := shouldMerge(cur, r, reserved); mergeReason != mergeNo {
			switch mergeReason {
			case mergeSameDate:
				stats.MergedSameRegDate++
			case mergeAfriNIC:
				stats.MergedAfriNIC++
			case mergeTransfer:
				stats.MergedTransfers++
				cur.Transferred = true
				stats.InterRIRTransfers++
			}
			cur.Span.End = r.Span.End
			cur.RIR = r.RIR
			if r.CC != "" {
				cur.CC = r.CC
			}
			if r.OpaqueID != "" {
				cur.OpaqueID = r.OpaqueID
			}
			cur.Open = r.OpenAtEnd
			cur.Pieces++
			continue
		}
		stats.SplitNewRegDate++
		out = append(out, cur)
		cur = lifetimeFromRun(r)
	}
	return append(out, cur)
}

func lifetimeFromRun(r restore.Run) AdminLifetime {
	return AdminLifetime{
		ASN: r.ASN, RIR: r.RIR, CC: r.CC, OpaqueID: r.OpaqueID,
		RegDate: r.RegDate, Span: r.Span, Open: r.OpenAtEnd, Pieces: 1,
	}
}

type mergeReason uint8

const (
	mergeNo mergeReason = iota
	mergeSameDate
	mergeAfriNIC
	mergeTransfer
)

// shouldMerge decides whether run r continues the lifetime cur, per the
// §4.1 rules.
func shouldMerge(cur AdminLifetime, r restore.Run, reserved []restore.Run) mergeReason {
	gap := r.Span.Start.Sub(cur.Span.End) - 1

	if r.RIR != cur.RIR {
		// Inter-RIR transfer: one lifetime iff there is no gap between
		// the allocations.
		if gap == 0 {
			return mergeTransfer
		}
		return mergeNo
	}
	// Same registry, after a reserved spell or a disappearance: the
	// registration date discriminates same-holder (merge) from
	// reallocation (split).
	if r.RegDate == cur.RegDate && r.RegDate != dates.None {
		return mergeSameDate
	}
	// AfriNIC exception: reserved for the whole gap and re-allocated
	// without ever becoming available means the previous holder got it
	// back, even under a new registration date.
	if r.RIR == asn.AfriNIC && gap > 0 {
		gapIv := intervals.New(cur.Span.End.AddDays(1), r.Span.Start.AddDays(-1))
		covered := 0
		for _, res := range reserved {
			if iv, ok := res.Span.Intersect(gapIv); ok {
				covered += iv.Days()
			}
		}
		if covered >= gapIv.Days() {
			return mergeAfriNIC
		}
	}
	return mergeNo
}

// AdminIndex groups lifetimes by ASN for joint analysis.
type AdminIndex struct {
	Lifetimes []AdminLifetime
	byASN     map[asn.ASN][]int
}

// NewAdminIndex indexes lifetimes (which must be sorted by ASN, start —
// as BuildAdminLifetimes returns them).
func NewAdminIndex(lifetimes []AdminLifetime) *AdminIndex {
	idx := &AdminIndex{Lifetimes: lifetimes, byASN: make(map[asn.ASN][]int)}
	for i, l := range lifetimes {
		idx.byASN[l.ASN] = append(idx.byASN[l.ASN], i)
	}
	return idx
}

// Of returns the lifetime indices of an ASN.
func (idx *AdminIndex) Of(a asn.ASN) []int { return idx.byASN[a] }

// SiblingCounts returns, for each opaque organization id, the set of
// ASNs it held — the §6.1/§6.3 sibling analysis input.
func (idx *AdminIndex) SiblingCounts() map[string][]asn.ASN {
	out := make(map[string][]asn.ASN)
	for _, l := range idx.Lifetimes {
		if l.OpaqueID == "" {
			continue
		}
		list := out[l.OpaqueID]
		if len(list) == 0 || list[len(list)-1] != l.ASN {
			out[l.OpaqueID] = append(list, l.ASN)
		}
	}
	return out
}
