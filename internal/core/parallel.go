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
// groups of xs, which must be sorted by the ASN asnOf reads.
func asnGroups[T any](xs []T, asnOf func(*T) asn.ASN) []parallel.Range {
	var out []parallel.Range
	for i := 0; i < len(xs); {
		a, j := asnOf(&xs[i]), i+1
		for j < len(xs) && asnOf(&xs[j]) == a {
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
	groups := asnGroups(runs, func(r *restore.Run) asn.ASN { return r.ASN })
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
// ascending order within contiguous shards and the shard outputs are
// concatenated in shard order, so lifetime order and indices are the
// same for every worker count. The §4.2 rule itself lives in
// intervals.Set.SplitByTimeout and nowhere else. Cancellation is
// cooperative (ctx's error is the only possible one).
func BuildOpLifetimesParallelContext(ctx context.Context, act *bgpscan.Activity, timeout, workers int) (*OpIndex, error) {
	asns := sortedASNs(act)
	shards := parallel.Shards(len(asns), workers)
	parts := make([][]OpLifetime, len(shards))
	if err := parallel.ForEach(ctx, len(shards), workers, func(_ context.Context, si int) error {
		shard := asns[shards[si].Lo:shards[si].Hi]
		out := make([]OpLifetime, 0, len(shard))
		for _, a := range shard {
			for _, seg := range act.ASNs[a].Days.SplitByTimeout(timeout) {
				out = append(out, OpLifetime{ASN: a, Span: seg})
			}
		}
		parts[si] = out
		return nil
	}); err != nil {
		return nil, err
	}

	total := 0
	for _, p := range parts {
		total += len(p)
	}
	idx := &OpIndex{
		Timeout:   timeout,
		Activity:  act,
		Lifetimes: make([]OpLifetime, 0, total),
		byASN:     make(map[asn.ASN][]int, len(asns)),
	}
	for _, p := range parts {
		idx.Lifetimes = append(idx.Lifetimes, p...)
	}
	// Lifetimes are globally ASN-sorted, so each ASN's indices are one
	// contiguous run: the per-ASN index slices all view one shared
	// sequential array instead of growing a small slice per ASN.
	seq := make([]int, total)
	for i := range seq {
		seq[i] = i
	}
	for i := 0; i < total; {
		j := i
		for j < total && idx.Lifetimes[j].ASN == idx.Lifetimes[i].ASN {
			j++
		}
		idx.byASN[idx.Lifetimes[i].ASN] = seq[i:j:j]
		i = j
	}
	return idx, nil
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

	groups := asnGroups(admin.Lifetimes, func(l *AdminLifetime) asn.ASN { return l.ASN })
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
