// Package restore implements the paper's §3.1 restoration of delegation
// archives: it scans each registry's daily files in order and rebuilds
// per-ASN status timelines while repairing the archive's error classes —
//
//	(i)   bridging missing or corrupted file days,
//	(ii)  recovering record groups that vanish from extended files by
//	      falling back to the same day's regular file,
//	(iii) reconciling same-day regular/extended divergence in favour of
//	      the newer (extended) file,
//	(iv)  resolving duplicate records with inconsistent status by
//	      continuity with the previous day,
//	(v)   repairing registration dates that sit in the future, travel
//	      back in time, or show the RIPE 1993-09-01 placeholder (using
//	      the ERX reference data), and
//	(vi)  removing inter-RIR inconsistencies: stale records kept by the
//	      origin registry after a transfer, and mistaken allocations of
//	      ASNs outside the registry's IANA blocks.
//
// The output is a set of status runs — the cleaned daily view the §4.1
// lifetime construction consumes — plus a report counting every repair.
package restore

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/intervals"
	"parallellives/internal/parallel"
	"parallellives/internal/registry"
)

// ripePlaceholder is the placeholder registration date of §3.1 step (v).
var ripePlaceholder = dates.MustParse("1993-09-01")

// Run is one contiguous span of days over which an ASN held a constant
// delegation status in one registry's (restored) files.
type Run struct {
	ASN      asn.ASN
	RIR      asn.RIR
	Status   delegation.Status // StatusAllocated/StatusAssigned/StatusReserved
	CC       string
	OpaqueID string
	// RegDate is the restored registration date; FirstRegDate is the
	// earliest raw date observed before repair, kept for auditability.
	RegDate      dates.Day
	FirstRegDate dates.Day
	Span         intervals.Interval
	// OpenAtEnd marks runs still present in the last file scanned.
	OpenAtEnd bool
}

// Delegated reports whether the run represents a held resource.
func (r Run) Delegated() bool { return r.Status.Delegated() }

// Report counts the repairs performed, mirroring §3.1's inventory.
type Report struct {
	FilesScanned    int
	MissingFileDays int
	// CorruptFileDays counts missing days whose files were retrieved but
	// unusable (a subset of MissingFileDays): classified separately so the
	// Health report can distinguish archive holes from damaged downloads.
	CorruptFileDays        int
	GapBridgedASNDays      int64
	RecoveredFromRegular   int64
	DivergenceReconciled   int64
	DuplicatesResolved     int
	FutureDatesFixed       int
	PlaceholdersRestored   int
	BackTravelFixed        int
	RegDateCorrections     int
	StaleTransferRunsCut   int
	MistakenRecordsDropped int
}

// add accumulates another report's counts — the reduce step when
// per-source reports from a parallel restoration are combined.
func (r *Report) add(o Report) {
	r.FilesScanned += o.FilesScanned
	r.MissingFileDays += o.MissingFileDays
	r.CorruptFileDays += o.CorruptFileDays
	r.GapBridgedASNDays += o.GapBridgedASNDays
	r.RecoveredFromRegular += o.RecoveredFromRegular
	r.DivergenceReconciled += o.DivergenceReconciled
	r.DuplicatesResolved += o.DuplicatesResolved
	r.FutureDatesFixed += o.FutureDatesFixed
	r.PlaceholdersRestored += o.PlaceholdersRestored
	r.BackTravelFixed += o.BackTravelFixed
	r.RegDateCorrections += o.RegDateCorrections
	r.StaleTransferRunsCut += o.StaleTransferRunsCut
	r.MistakenRecordsDropped += o.MistakenRecordsDropped
}

// Coverage is one registry's share of usable archive days — the per-RIR
// file inventory behind the pipeline Health report (Table 1's coverage
// column, kept per run instead of recomputed from the archive).
type Coverage struct {
	Days        int // days the source yielded
	FileDays    int // days with at least one usable file
	MissingDays int // days with no usable file
	CorruptDays int // missing days caused by corrupt retrievals
}

// Result is the restored archive view.
type Result struct {
	Start, End dates.Day
	Runs       []Run // sorted by ASN, then span start
	Report     Report
	Coverage   [asn.NumRIRs]Coverage
}

// RunsOf returns the restored runs of one ASN in chronological order.
func (res *Result) RunsOf(a asn.ASN) []Run {
	i := sort.Search(len(res.Runs), func(i int) bool { return res.Runs[i].ASN >= a })
	j := i
	for j < len(res.Runs) && res.Runs[j].ASN == a {
		j++
	}
	return res.Runs[i:j]
}

// Options selectively disables restoration steps — the ablation knobs
// behind the "restoration on/off" benchmarks. The zero value enables
// every repair.
type Options struct {
	// NoGapBridging closes runs across missing-file days instead of
	// carrying state forward (disables step i).
	NoGapBridging bool
	// NoRegularRecovery ignores the regular files when the extended file
	// is present (disables steps ii/iii).
	NoRegularRecovery bool
	// NoDateRepair keeps registration dates as published (disables
	// step v).
	NoDateRepair bool
	// NoInterRIRFix keeps cross-registry inconsistencies (disables
	// step vi).
	NoInterRIRFix bool
}

// Restore scans every source and produces the cleaned status runs with
// every repair enabled. The erx table carries original registration
// dates for early-registration transfers, used to repair placeholder
// dates.
func Restore(sources []registry.Source, erx []registry.ERXEntry) *Result {
	return RestoreWithOptions(sources, erx, Options{})
}

// RestoreWithOptions is Restore with selected repairs disabled.
func RestoreWithOptions(sources []registry.Source, erx []registry.ERXEntry, opts Options) *Result {
	res, _ := RestoreParallelContext(context.Background(), sources, erx, opts, 1)
	return res
}

// RestoreParallelContext is RestoreWithOptions with the per-registry
// scans running on up to workers goroutines: each source's day stream is
// consumed by one goroutine (sources never share state). The sources'
// runs are concatenated in source order and stable-sorted once by (ASN,
// span start), so ties keep source order and the result is bit-for-bit
// the same for any worker count. The cross-registry repair (step vi)
// needs that by-ASN view, so it runs after the sort.
// Cancellation is cooperative: a cancelled ctx abandons the sources not
// yet scanned and returns ctx's error instead of a partial result.
// Restoration itself is infallible — the only possible error is ctx's.
func RestoreParallelContext(ctx context.Context, sources []registry.Source, erx []registry.ERXEntry, opts Options, workers int) (*Result, error) {
	erxDates := make(map[asn.ASN]dates.Day, len(erx))
	for _, e := range erx {
		erxDates[e.ASN] = e.RegDate
	}
	parts := make([]*Result, len(sources))
	runs := make([][]Run, len(sources))
	err := parallel.ForEach(ctx, len(sources), workers, func(_ context.Context, i int) error {
		parts[i] = &Result{Start: dates.None, End: dates.None}
		scanSource(parts[i], sources[i], erxDates, opts)
		runs[i] = parts[i].Runs
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := mergeResults(parts)
	res.Runs = slices.Concat(runs...)
	slices.SortStableFunc(res.Runs, func(a, b Run) int {
		if a.ASN != b.ASN {
			return cmp.Compare(a.ASN, b.ASN)
		}
		return cmp.Compare(a.Span.Start, b.Span.Start)
	})
	if !opts.NoInterRIRFix {
		fixInterRIR(res)
	}
	return res, nil
}

// mergeResults sums per-source reports, coverages and windows into one
// result with no runs.
func mergeResults(parts []*Result) *Result {
	res := &Result{Start: dates.None, End: dates.None}
	for _, p := range parts {
		res.Report.add(p.Report)
		for r := range p.Coverage {
			res.Coverage[r].Days += p.Coverage[r].Days
			res.Coverage[r].FileDays += p.Coverage[r].FileDays
			res.Coverage[r].MissingDays += p.Coverage[r].MissingDays
			res.Coverage[r].CorruptDays += p.Coverage[r].CorruptDays
		}
		if p.Start != dates.None && (res.Start == dates.None || p.Start < res.Start) {
			res.Start = p.Start
		}
		if p.End != dates.None && (res.End == dates.None || p.End > res.End) {
			res.End = p.End
		}
	}
	return res
}

// liveState tracks one ASN's open run while scanning a registry.
type liveState struct {
	asn             asn.ASN
	status          delegation.Status
	cc, opaque      string
	regDate         dates.Day
	firstRegDate    dates.Day
	start           dates.Day
	lastSeen        dates.Day
	placeholderSeen bool
}

// run is the Run st has covered so far in registry rir.
func (st *liveState) run(rir asn.RIR) Run {
	return Run{
		ASN: st.asn, RIR: rir, Status: st.status, CC: st.cc, OpaqueID: st.opaque,
		RegDate: st.regDate, FirstRegDate: st.firstRegDate,
		Span: intervals.New(st.start, st.lastSeen),
	}
}

// scanSource walks one registry's days. The open runs are a slice sorted
// by ASN, and each file day is one merge of it with the day's effective
// records (also sorted by ASN) into a second slice: vanished runs close,
// new ones open, shared ones continue or flip. The two slices swap every
// file day, so the walk allocates only while they grow.
func scanSource(res *Result, src registry.Source, erxDates map[asn.ASN]dates.Day, opts Options) {
	rir := src.Registry()
	var live, next []liveState
	var sc dayScratch
	var lastDay dates.Day = dates.None
	var firstFileDay dates.Day = dates.None

	for {
		snap, ok := src.Next()
		if !ok {
			break
		}
		day := snap.Day
		lastDay = day
		if res.Start == dates.None || day < res.Start {
			res.Start = day
		}
		if res.End == dates.None || day > res.End {
			res.End = day
		}
		res.Coverage[rir].Days++
		if snap.Regular == nil && snap.Extended == nil {
			res.Report.MissingFileDays++
			res.Coverage[rir].MissingDays++
			if snap.RegularCorrupt || snap.ExtendedCorrupt {
				res.Report.CorruptFileDays++
				res.Coverage[rir].CorruptDays++
			}
			if opts.NoGapBridging {
				// Ablation: treat the missing day as an empty file,
				// terminating every open run.
				for i := range live {
					res.Runs = append(res.Runs, live[i].run(rir))
				}
				live = live[:0]
				continue
			}
			// Step (i): no usable file today. Carry all state forward;
			// runs are bridged if their ASNs reappear later, otherwise
			// they end at their last-seen day.
			continue
		}
		res.Report.FilesScanned++
		res.Coverage[rir].FileDays++
		if firstFileDay == dates.None {
			firstFileDay = day
		}
		today := sc.effectiveRecords(res, snap, opts)

		next = next[:0]
		i, j := 0, 0
		for i < len(live) || j < len(today) {
			if j == len(today) || (i < len(live) && live[i].asn < today[j].ASN) {
				// The ASN vanished from a present file: its run closes.
				res.Runs = append(res.Runs, live[i].run(rir))
				i++
				continue
			}
			rec := &today[j]
			j++
			if i < len(live) && live[i].asn == rec.ASN {
				st := &live[i]
				i++
				if st.status.Delegated() == rec.Status.Delegated() &&
					(st.status == rec.Status || rec.Status.Delegated()) {
					// Same state (allocated/assigned treated as one class).
					// Days bridged since it was last seen (none if yesterday).
					res.Report.GapBridgedASNDays += int64(day.Sub(st.lastSeen) - 1)
					st.lastSeen = day
					updateRegDate(res, st, rec, day, erxDates, opts)
					st.cc = rec.CC
					if rec.OpaqueID != "" {
						st.opaque = rec.OpaqueID
					}
					next = append(next, *st)
					continue
				}
				res.Runs = append(res.Runs, st.run(rir)) // status flip: allocated <-> reserved
			}
			next = append(next, openRun(res, rec, day, firstFileDay, erxDates, opts))
		}
		live, next = next, live
	}
	// End of stream: everything still open was alive on the last day.
	for i := range live {
		r := live[i].run(rir)
		r.OpenAtEnd = live[i].lastSeen == lastDay
		res.Runs = append(res.Runs, r)
	}
}

// openRun starts the run of an ASN that appears (or flips status) in
// the file of day.
func openRun(res *Result, rec *delegation.Record, day, firstFileDay dates.Day, erxDates map[asn.ASN]dates.Day, opts Options) liveState {
	reg := rec.Date
	if !opts.NoDateRepair && reg != dates.None && reg > day {
		// Step (v): future registration date; use the first appearance day.
		reg = day
		res.Report.FutureDatesFixed++
	}
	if !opts.NoDateRepair && reg == ripePlaceholder {
		// Step (v): a run opening directly on the placeholder date (the
		// true date never visible in files) is restored from ERX data.
		if orig, ok := erxDates[rec.ASN]; ok {
			reg = orig
			res.Report.PlaceholdersRestored++
		}
	}
	start := day
	if day == firstFileDay && reg != dates.None && reg < day && rec.Status.Delegated() {
		// An ASN already present in the registry's very first file was
		// allocated before the archive begins: its administrative life
		// starts at the registration date, not at the archive boundary.
		// (Without this, every historic allocation would spuriously land
		// in the partial-overlap category once BGP data predates the
		// registry's first file.)
		start = reg
	}
	return liveState{
		asn: rec.ASN, status: rec.Status, cc: rec.CC, opaque: rec.OpaqueID,
		regDate: reg, firstRegDate: rec.Date,
		start: start, lastSeen: day,
	}
}

// dayScratch is one source's per-file-day working memory, reused from
// day to day: the expanded rows of the day's two files and their merge,
// each sorted by ASN. It never aliases the files it reads.
type dayScratch struct {
	main, regular, merged []delegation.Record
}

// effectiveRecords merges the day's regular and extended files per the
// paper's rules: the extended file is authoritative when present
// (step iii), records present only in the regular file are recovered
// (step ii), and duplicate records are resolved by preferring delegated
// status (step iv — matching the evidence-based disambiguation, which in
// the archives resolved in favour of the live allocation). The result
// holds one record per ASN, sorted by ASN, and lives in sc until the
// next call.
func (sc *dayScratch) effectiveRecords(res *Result, snap registry.Snapshot, opts Options) []delegation.Record {
	f := snap.Extended
	if f == nil {
		f = snap.Regular
	}
	sc.main = expand(sc.main, f)
	today := resolveDuplicates(res, sc.main)
	if snap.Extended == nil || snap.Regular == nil || opts.NoRegularRecovery {
		return today
	}
	// Step (ii)/(iii): the regular file backfills records the newer
	// extended file dropped — the first regular row of each such ASN.
	sc.regular = expand(sc.regular, snap.Regular)
	merged, reg := sc.merged[:0], sc.regular
	var recovered int64
	for i, j := 0, 0; i < len(today) || j < len(reg); {
		if j == len(reg) || (i < len(today) && today[i].ASN <= reg[j].ASN) {
			merged = append(merged, today[i])
			i++
		} else {
			merged = append(merged, reg[j])
			recovered++
		}
		// Skip the regular rows of the ASN just taken.
		for a := merged[len(merged)-1].ASN; j < len(reg) && reg[j].ASN == a; j++ {
		}
	}
	sc.merged = merged
	if recovered > 0 {
		res.Report.RecoveredFromRegular += recovered
		res.Report.DivergenceReconciled++
	}
	return merged
}

// expand writes f's asn rows into dst one per ASN — blocks split,
// available rows dropped — sorted by ASN and, within an ASN, in file
// order. The stable sort runs only when the rows are out of order: a
// rendered file is sorted by first ASN, so only a block overlapping a
// later row needs it.
func expand(dst []delegation.Record, f *delegation.File) []delegation.Record {
	dst = dst[:0]
	for _, blk := range f.ASNs {
		if blk.Status == delegation.StatusAvailable {
			continue
		}
		for k := 0; k < blk.Count; k++ {
			rec := blk
			rec.ASN = blk.ASN + asn.ASN(k)
			rec.Count = 1
			dst = append(dst, rec)
		}
	}
	byASN := func(a, b delegation.Record) int { return cmp.Compare(a.ASN, b.ASN) }
	if !slices.IsSortedFunc(dst, byASN) {
		slices.SortStableFunc(dst, byASN)
	}
	return dst
}

// resolveDuplicates keeps one row per ASN of the sorted recs, in place:
// duplicate rows inside one file (step iv) resolve to the first
// delegated row, else the first row. Every dropped row is counted.
func resolveDuplicates(res *Result, recs []delegation.Record) []delegation.Record {
	out := recs[:0]
	for i := 0; i < len(recs); {
		keep, j := i, i+1
		for ; j < len(recs) && recs[j].ASN == recs[i].ASN; j++ {
			if !recs[keep].Status.Delegated() && recs[j].Status.Delegated() {
				keep = j
			}
		}
		res.Report.DuplicatesResolved += j - i - 1
		out = append(out, recs[keep])
		i = j
	}
	return out
}

// updateRegDate applies the step (v) date repairs on a continuing run.
func updateRegDate(res *Result, st *liveState, rec *delegation.Record, day dates.Day, erxDates map[asn.ASN]dates.Day, opts Options) {
	newDate := rec.Date
	if newDate == st.regDate || newDate == dates.None {
		return
	}
	if opts.NoDateRepair {
		st.regDate = newDate // take the files at face value
		return
	}
	switch {
	case newDate > day && st.regDate <= day:
		// Future date appearing mid-run: keep the existing sane date.
		res.Report.FutureDatesFixed++
	case newDate == ripePlaceholder:
		// Back-travel to the placeholder: restore from ERX reference
		// when available, else keep the earlier date already held.
		// Counted once per run; the placeholder persists in later files.
		if !st.placeholderSeen {
			if orig, ok := erxDates[st.asn]; ok {
				st.regDate = orig
			}
			res.Report.PlaceholdersRestored++
			st.placeholderSeen = true
		}
	case newDate < st.regDate:
		// Generic back-travel: the paper keeps the earliest date found.
		st.regDate = newDate
		st.firstRegDate = newDate
		res.Report.BackTravelFixed++
	default:
		// Forward change while continuously allocated: an administrative
		// correction to the same allocation (§4.1); adopt it without
		// splitting the run.
		st.regDate = newDate
		res.Report.RegDateCorrections++
	}
}

// fixInterRIR removes cross-registry inconsistencies (step vi): records
// outside the registry's IANA blocks with no transfer evidence are
// dropped as mistaken allocations, and overlapping delegated runs from
// transfers are truncated in the origin registry.
func fixInterRIR(res *Result) {
	kept := res.Runs[:0]
	for i := 0; i < len(res.Runs); {
		j := i
		for j < len(res.Runs) && res.Runs[j].ASN == res.Runs[i].ASN {
			j++
		}
		group := res.Runs[i:j]
		for _, r := range group {
			if registry.IANABlockHolds(r.RIR, r.ASN) || transferEvidence(r, group) {
				kept = append(kept, r)
				continue
			}
			res.Report.MistakenRecordsDropped++
		}
		i = j
	}
	res.Runs = kept
	truncateOverlaps(res)
}

// transferEvidence reports whether an out-of-block run is corroborated
// by an inter-RIR transfer: another registry (the block holder) held the
// same ASN up to (or overlapping) this run's start. Mistaken apparent
// allocations have no such predecessor — the paper's §3.1 distinction
// between stale transfer data and allocations of blocks never assigned
// by IANA.
func transferEvidence(r Run, group []Run) bool {
	if !r.Delegated() {
		return false
	}
	for _, o := range group {
		if o.RIR == r.RIR || !o.Delegated() {
			continue
		}
		if o.Span.Start < r.Span.Start && o.Span.End >= r.Span.Start.AddDays(-90) {
			return true
		}
	}
	return false
}

// truncateOverlaps cuts overlapping delegated runs of the same ASN held
// in different registries: the later-starting registry wins (it received
// the transfer); the origin registry's stale tail is cut.
func truncateOverlaps(res *Result) {
	for i := 0; i < len(res.Runs); {
		j := i
		for j < len(res.Runs) && res.Runs[j].ASN == res.Runs[i].ASN {
			j++
		}
		group := res.Runs[i:j]
		for x := range group {
			for y := range group {
				a, b := &group[x], &group[y]
				if x == y || a.RIR == b.RIR || !a.Delegated() || !b.Delegated() {
					continue
				}
				if !a.Span.Overlaps(b.Span) {
					continue
				}
				// a is the origin if it started earlier.
				if a.Span.Start < b.Span.Start {
					a.Span.End = b.Span.Start.AddDays(-1)
					a.OpenAtEnd = false
					res.Report.StaleTransferRunsCut++
				}
			}
		}
		i = j
	}
	// Truncation can invert tiny runs; drop any that became empty.
	kept := res.Runs[:0]
	for _, r := range res.Runs {
		if r.Span.End >= r.Span.Start {
			kept = append(kept, r)
		}
	}
	res.Runs = kept
}
