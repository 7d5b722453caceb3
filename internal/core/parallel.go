package core

import (
	"context"
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/parallel"
	"parallellives/internal/restore"
)

// This file holds the sharded variants of the §4/§5 builders. Lifetimes
// of different ASNs never interact, so every shard here is aligned on
// ASN-group boundaries: one shard owns every run, lifetime and activity
// row of its ASNs, making the shards write-disjoint. Outputs are
// recombined by plain concatenation in shard order, which reproduces the
// sequential iteration order exactly — the sequential builders are the
// workers==1 case of these functions, not separate code paths.

// asnGroups returns the [Lo, Hi) index ranges of the maximal same-ASN
// groups of the runs slice (which is sorted by ASN).
func asnGroups(runs []restore.Run) []parallel.Range {
	var out []parallel.Range
	for i := 0; i < len(runs); {
		j := i
		for j < len(runs) && runs[j].ASN == runs[i].ASN {
			j++
		}
		out = append(out, parallel.Range{Lo: i, Hi: j})
		i = j
	}
	return out
}

// adminGroups returns the same-ASN group ranges of a lifetime slice
// sorted by ASN.
func adminGroups(ls []AdminLifetime) []parallel.Range {
	var out []parallel.Range
	for i := 0; i < len(ls); {
		j := i
		for j < len(ls) && ls[j].ASN == ls[i].ASN {
			j++
		}
		out = append(out, parallel.Range{Lo: i, Hi: j})
		i = j
	}
	return out
}

// BuildAdminLifetimesParallelContext is BuildAdminLifetimes with the per-ASN
// merge work sharded across workers goroutines. Each shard owns a
// contiguous range of ASN groups and produces its lifetimes and merge
// counters independently; concatenating the shard outputs in order
// reproduces the sequential pre-sort order, so the final stable sort and
// the whole-output tallies yield bit-for-bit the sequential result.
// Cancellation is cooperative: a cancelled ctx abandons unstarted
// shards and returns ctx's error instead of a partial result. The
// builders themselves are infallible — ctx's error is the only one.
func BuildAdminLifetimesParallelContext(ctx context.Context, res *restore.Result, workers int) ([]AdminLifetime, AdminStats, error) {
	runs := res.Runs
	groups := asnGroups(runs)
	shards := parallel.Shards(len(groups), workers)

	parts := make([][]AdminLifetime, len(shards))
	partStats := make([]AdminStats, len(shards))
	if err := parallel.ForEach(ctx, len(shards), workers, func(_ context.Context, si int) error {
		var sc runScratch // one partition scratch per shard, reused per group
		for _, g := range groups[shards[si].Lo:shards[si].Hi] {
			parts[si] = appendLifetimes(parts[si], runs[g.Lo:g.Hi], &partStats[si], &sc)
		}
		return nil
	}); err != nil {
		return nil, AdminStats{}, err
	}

	var stats AdminStats
	total := 0
	for si := range parts {
		total += len(parts[si])
		stats.MergedSameRegDate += partStats[si].MergedSameRegDate
		stats.MergedAfriNIC += partStats[si].MergedAfriNIC
		stats.MergedTransfers += partStats[si].MergedTransfers
		stats.SplitNewRegDate += partStats[si].SplitNewRegDate
		stats.InterRIRTransfers += partStats[si].InterRIRTransfers
		stats.TotalDelegatedRuns += partStats[si].TotalDelegatedRuns
		stats.ReservedRunsSkipped += partStats[si].ReservedRunsSkipped
	}
	out := make([]AdminLifetime, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}

	sort.SliceStable(out, func(a, b int) bool {
		if out[a].ASN != out[b].ASN {
			return out[a].ASN < out[b].ASN
		}
		return out[a].Span.Start < out[b].Span.Start
	})
	stats.Lifetimes = len(out)
	seen := make(map[asn.ASN]int)
	for _, l := range out {
		seen[l.ASN]++
		if l.Open {
			stats.OpenLifetimes++
		}
	}
	stats.ASNs = len(seen)
	for _, n := range seen {
		if n > 1 {
			stats.ReallocatedASNs++
		}
	}
	return out, stats, nil
}

// BuildOpLifetimesParallelContext is BuildOpLifetimes with the per-ASN timeout
// segmentation sharded across workers goroutines. ASNs are processed in
// sorted order within contiguous shards; the index is rebuilt by a
// sequential concatenation pass, so lifetime order and indices match the
// sequential build exactly. Cancellation is
// cooperative (ctx's error is the only possible one). The
// segmentation runs over a columnar view of the activity built here;
// callers sweeping many timeouts over one activity should build the
// ActivityColumns once and call its BuildOpLifetimes directly.
func BuildOpLifetimesParallelContext(ctx context.Context, act *bgpscan.Activity, timeout, workers int) (*OpIndex, error) {
	return NewActivityColumns(act).BuildOpLifetimes(ctx, timeout, workers)
}

// AnalyzeParallelContext is Analyze with the admin-side classification sharded
// across workers goroutines. Shards are aligned on admin ASN groups: the
// operational lifetimes an admin lifetime can mark as overlapped or
// contained all share its ASN, so one shard owns every write to a given
// ASN's op flags and the shards are write-disjoint. The op-side
// classification reads the merged flags sequentially afterwards.
// Cancellation is cooperative (ctx's error is the only possible one).
func AnalyzeParallelContext(ctx context.Context, admin *AdminIndex, ops *OpIndex, workers int) (*Joint, error) {
	j := &Joint{
		Admin:        admin,
		Ops:          ops,
		AdminCat:     make([]Category, len(admin.Lifetimes)),
		OpCat:        make([]Category, len(ops.Lifetimes)),
		ContainedOps: make([][]int, len(admin.Lifetimes)),
		OverlapOps:   make([][]int, len(admin.Lifetimes)),
	}
	opOverlapped := make([]bool, len(ops.Lifetimes))
	opContained := make([]bool, len(ops.Lifetimes))

	groups := adminGroups(admin.Lifetimes)
	shards := parallel.Shards(len(groups), workers)
	if err := parallel.ForEach(ctx, len(shards), workers, func(_ context.Context, si int) error {
		for _, g := range groups[shards[si].Lo:shards[si].Hi] {
			for ai := g.Lo; ai < g.Hi; ai++ {
				al := &admin.Lifetimes[ai]
				cat := CatUnused
				for _, oi := range ops.Of(al.ASN) {
					ol := &ops.Lifetimes[oi]
					if !al.Span.Overlaps(ol.Span) {
						continue
					}
					j.OverlapOps[ai] = append(j.OverlapOps[ai], oi)
					opOverlapped[oi] = true
					if al.Span.ContainsInterval(ol.Span) {
						j.ContainedOps[ai] = append(j.ContainedOps[ai], oi)
						opContained[oi] = true
						if cat == CatUnused {
							cat = CatComplete
						}
					} else {
						cat = CatPartial
					}
				}
				j.AdminCat[ai] = cat
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	for oi := range ops.Lifetimes {
		switch {
		case opContained[oi]:
			j.OpCat[oi] = CatComplete
		case opOverlapped[oi]:
			j.OpCat[oi] = CatPartial
		default:
			j.OpCat[oi] = CatOutside
		}
	}
	return j, nil
}
