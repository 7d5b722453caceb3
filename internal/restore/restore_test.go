package restore

import (
	"cmp"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/intervals"
	"parallellives/internal/registry"
)

func d(s string) dates.Day { return dates.MustParse(s) }

// fakeSource replays scripted snapshots.
type fakeSource struct {
	rir   asn.RIR
	snaps []registry.Snapshot
	i     int
}

func (f *fakeSource) Registry() asn.RIR { return f.rir }

func (f *fakeSource) Next() (registry.Snapshot, bool) {
	if f.i >= len(f.snaps) {
		return registry.Snapshot{}, false
	}
	s := f.snaps[f.i]
	f.i++
	return s, true
}

// file builds an extended delegation file holding the given records.
func file(rir asn.RIR, recs ...delegation.Record) *delegation.File {
	return &delegation.File{Registry: rir, Extended: true, ASNs: recs}
}

// rec builds one allocated record.
func rec(rir asn.RIR, a asn.ASN, cc, reg string) delegation.Record {
	return delegation.Record{
		Registry: rir, CC: cc, ASN: a, Count: 1,
		Date: d(reg), Status: delegation.StatusAllocated, OpaqueID: "o-1",
	}
}

func recStatus(rir asn.RIR, a asn.ASN, reg string, st delegation.Status) delegation.Record {
	r := rec(rir, a, "US", reg)
	r.Status = st
	return r
}

// days builds consecutive snapshots starting at start; nil file entries
// model missing days.
func days(rir asn.RIR, start string, files ...*delegation.File) *fakeSource {
	s := &fakeSource{rir: rir}
	day := d(start)
	for i, f := range files {
		s.snaps = append(s.snaps, registry.Snapshot{Day: day.AddDays(i), Extended: f})
	}
	return s
}

func restoreOne(src registry.Source, erx ...registry.ERXEntry) *Result {
	return Restore([]registry.Source{src}, erx)
}

func TestBasicRun(t *testing.T) {
	// ARIN pool starts at 1000 in the simulated IANA table.
	src := days(asn.ARIN, "2010-01-01",
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
	)
	res := restoreOne(src)
	runs := res.RunsOf(1500)
	if len(runs) != 1 {
		t.Fatalf("runs = %+v", runs)
	}
	r := runs[0]
	if r.Span.Start != d("2010-01-01") || r.Span.End != d("2010-01-03") || !r.OpenAtEnd {
		t.Errorf("run = %+v", r)
	}
	if r.CC != "US" || r.OpaqueID != "o-1" || r.RegDate != d("2010-01-01") {
		t.Errorf("run fields = %+v", r)
	}
}

func TestMissingFileBridged(t *testing.T) {
	src := days(asn.ARIN, "2010-01-01",
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
		nil, // missing day
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
	)
	res := restoreOne(src)
	runs := res.RunsOf(1500)
	if len(runs) != 1 || runs[0].Span.End != d("2010-01-03") {
		t.Fatalf("runs = %+v", runs)
	}
	if res.Report.MissingFileDays != 1 || res.Report.GapBridgedASNDays != 1 {
		t.Errorf("report = %+v", res.Report)
	}
}

func TestCorruptFileDaysClassified(t *testing.T) {
	// A retrieved-but-unusable day bridges like a missing day but is
	// classified as corrupt, in both the report and the coverage table.
	src := days(asn.ARIN, "2010-01-01",
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
		nil, // corrupt retrieval (flag set below)
		nil, // genuinely absent day
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
	)
	src.snaps[1].ExtendedCorrupt = true
	res := restoreOne(src)
	runs := res.RunsOf(1500)
	if len(runs) != 1 || runs[0].Span.End != d("2010-01-04") {
		t.Fatalf("runs = %+v", runs)
	}
	if res.Report.MissingFileDays != 2 || res.Report.CorruptFileDays != 1 {
		t.Errorf("report = %+v", res.Report)
	}
	cov := res.Coverage[asn.ARIN]
	if cov.Days != 4 || cov.FileDays != 2 || cov.MissingDays != 2 || cov.CorruptDays != 1 {
		t.Errorf("coverage = %+v", cov)
	}
}

func TestMissingFileNotBridgedWhenGone(t *testing.T) {
	// The ASN does not reappear after the gap: the run ends at its last
	// day actually seen (§3.1 step i).
	src := days(asn.ARIN, "2010-01-01",
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
		nil,
		file(asn.ARIN), // present file without the record
	)
	res := restoreOne(src)
	runs := res.RunsOf(1500)
	if len(runs) != 1 || runs[0].Span.End != d("2010-01-01") || runs[0].OpenAtEnd {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestRecordRecoveredFromRegular(t *testing.T) {
	ext := file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01"))
	extMissingRecord := file(asn.ARIN) // dropped group
	regular := &delegation.File{Registry: asn.ARIN, ASNs: []delegation.Record{
		rec(asn.ARIN, 1500, "US", "2010-01-01"),
	}}
	src := &fakeSource{rir: asn.ARIN, snaps: []registry.Snapshot{
		{Day: d("2010-01-01"), Extended: ext, Regular: regular},
		{Day: d("2010-01-02"), Extended: extMissingRecord, Regular: regular},
		{Day: d("2010-01-03"), Extended: ext, Regular: regular},
	}}
	res := restoreOne(src)
	runs := res.RunsOf(1500)
	if len(runs) != 1 || runs[0].Span.Days() != 3 {
		t.Fatalf("runs = %+v (report %+v)", runs, res.Report)
	}
	if res.Report.RecoveredFromRegular == 0 {
		t.Errorf("report = %+v", res.Report)
	}
}

func TestDuplicateResolvedTowardDelegated(t *testing.T) {
	dup := file(asn.AfriNIC,
		recStatus(asn.AfriNIC, 36500, "2010-01-01", delegation.StatusAllocated),
		recStatus(asn.AfriNIC, 36500, "2010-01-01", delegation.StatusReserved),
	)
	src := days(asn.AfriNIC, "2010-01-01", dup, dup)
	res := restoreOne(src)
	runs := res.RunsOf(36500)
	if len(runs) != 1 || !runs[0].Delegated() {
		t.Fatalf("runs = %+v", runs)
	}
	if res.Report.DuplicatesResolved == 0 {
		t.Errorf("report = %+v", res.Report)
	}
}

func TestFutureRegDateFixed(t *testing.T) {
	src := days(asn.AfriNIC, "2010-01-01",
		file(asn.AfriNIC, rec(asn.AfriNIC, 36500, "ZA", "2010-01-04")), // future!
		file(asn.AfriNIC, rec(asn.AfriNIC, 36500, "ZA", "2010-01-04")),
	)
	res := restoreOne(src)
	runs := res.RunsOf(36500)
	if len(runs) != 1 || runs[0].RegDate != d("2010-01-01") {
		t.Fatalf("runs = %+v", runs)
	}
	if res.Report.FutureDatesFixed == 0 {
		t.Errorf("report = %+v", res.Report)
	}
}

func TestPlaceholderRestoredFromERX(t *testing.T) {
	erx := registry.ERXEntry{ASN: 20500, RegDate: d("1995-04-10")}
	// Day 1 shows the true date, then it travels back to the placeholder.
	src := days(asn.RIPENCC, "2010-01-01",
		file(asn.RIPENCC, rec(asn.RIPENCC, 20500, "FR", "1995-04-10")),
		file(asn.RIPENCC, rec(asn.RIPENCC, 20500, "FR", "1993-09-01")),
		file(asn.RIPENCC, rec(asn.RIPENCC, 20500, "FR", "1993-09-01")),
	)
	res := restoreOne(src, erx)
	runs := res.RunsOf(20500)
	if len(runs) != 1 || runs[0].RegDate != d("1995-04-10") {
		t.Fatalf("runs = %+v", runs)
	}
	if res.Report.PlaceholdersRestored == 0 {
		t.Errorf("report = %+v", res.Report)
	}
	// A run that starts directly on the placeholder is also restored.
	src2 := days(asn.RIPENCC, "2010-01-01",
		file(asn.RIPENCC, rec(asn.RIPENCC, 20500, "FR", "1993-09-01")),
	)
	res2 := restoreOne(src2, erx)
	if res2.RunsOf(20500)[0].RegDate != d("1995-04-10") {
		t.Errorf("open-on-placeholder not restored: %+v", res2.RunsOf(20500))
	}
}

func TestBackTravelKeepsEarliest(t *testing.T) {
	src := days(asn.ARIN, "2010-01-01",
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2009-05-05")),
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2008-01-01")), // travels back
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2009-05-05")), // travels forward again
	)
	res := restoreOne(src)
	runs := res.RunsOf(1500)
	if len(runs) != 1 {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].RegDate != d("2009-05-05") {
		// After back-travel the earliest (2008-01-01) is held; the later
		// forward change is an administrative correction adopted per
		// §4.1. The final value is therefore 2009-05-05.
		t.Errorf("regDate = %v", runs[0].RegDate)
	}
	if res.Report.BackTravelFixed == 0 {
		t.Errorf("report = %+v", res.Report)
	}
}

func TestRegDateCorrectionDoesNotSplit(t *testing.T) {
	src := days(asn.ARIN, "2010-01-01",
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-01")),
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-03")), // forward correction
		file(asn.ARIN, rec(asn.ARIN, 1500, "US", "2010-01-03")),
	)
	res := restoreOne(src)
	runs := res.RunsOf(1500)
	if len(runs) != 1 {
		t.Fatalf("correction split the run: %+v", runs)
	}
	if runs[0].RegDate != d("2010-01-03") || res.Report.RegDateCorrections == 0 {
		t.Errorf("run = %+v report = %+v", runs[0], res.Report)
	}
}

func TestStatusFlipClosesRun(t *testing.T) {
	src := days(asn.ARIN, "2010-01-01",
		file(asn.ARIN, recStatus(asn.ARIN, 1500, "2010-01-01", delegation.StatusAllocated)),
		file(asn.ARIN, recStatus(asn.ARIN, 1500, "2010-01-01", delegation.StatusReserved)),
		file(asn.ARIN, recStatus(asn.ARIN, 1500, "2010-01-01", delegation.StatusReserved)),
	)
	res := restoreOne(src)
	runs := res.RunsOf(1500)
	if len(runs) != 2 {
		t.Fatalf("runs = %+v", runs)
	}
	if !runs[0].Delegated() || runs[1].Delegated() {
		t.Errorf("statuses = %v %v", runs[0].Status, runs[1].Status)
	}
}

func TestMistakenAllocationDropped(t *testing.T) {
	// ASN 36500 belongs to AfriNIC's block; a record for it in LACNIC's
	// files is evidently erroneous.
	src := days(asn.LACNIC, "2010-01-01",
		file(asn.LACNIC, rec(asn.LACNIC, 36500, "BR", "2010-01-01")),
	)
	res := restoreOne(src)
	if len(res.RunsOf(36500)) != 0 {
		t.Errorf("mistaken record kept: %+v", res.RunsOf(36500))
	}
	if res.Report.MistakenRecordsDropped != 1 {
		t.Errorf("report = %+v", res.Report)
	}
}

func TestStaleTransferTruncated(t *testing.T) {
	// ARIN keeps the record after the ASN moved to RIPE... but the ASN
	// must be inside both IANA blocks to survive the block filter, which
	// is impossible for 16-bit pools — the paper's real overlaps involve
	// transfers where both registries list the same number. Our IANA
	// table assigns each 16-bit ASN to one registry, so use a 32-bit
	// number near a pool boundary... instead, verify via two registries
	// sharing the ERX-era number inside the origin's block: the origin
	// retains it, the destination lists it too. The block filter drops
	// the destination record; the origin keeps it. To exercise span
	// truncation, place both runs in the same registry pair where the
	// filter keeps both: that requires the same RIR, which the overlap
	// pass skips. Hence we test truncation directly on crafted runs.
	res := &Result{Runs: []Run{
		{ASN: 1500, RIR: asn.ARIN, Status: delegation.StatusAllocated,
			Span: span("2010-01-01", "2012-06-01")},
		{ASN: 1500, RIR: asn.RIPENCC, Status: delegation.StatusAllocated,
			Span: span("2012-01-01", "2015-01-01")},
	}}
	truncateOverlaps(res)
	if res.Runs[0].Span.End != d("2011-12-31") {
		t.Errorf("origin run not truncated: %+v", res.Runs[0])
	}
	if res.Report.StaleTransferRunsCut != 1 {
		t.Errorf("report = %+v", res.Report)
	}
}

// span is a test shorthand for a day interval.
func span(a, b string) intervals.Interval { return intervals.New(d(a), d(b)) }

func TestTransferredRunKeptDespiteBlockMismatch(t *testing.T) {
	// ASN 1500 belongs to ARIN's block. It is transferred to RIPE NCC:
	// the RIPE run is out-of-block but corroborated by the adjacent ARIN
	// run, so it must survive — unlike a mistaken allocation.
	res := &Result{Runs: []Run{
		{ASN: 1500, RIR: asn.ARIN, Status: delegation.StatusAllocated,
			RegDate: d("2005-01-01"), Span: span("2005-01-01", "2012-01-01")},
		{ASN: 1500, RIR: asn.RIPENCC, Status: delegation.StatusAllocated,
			RegDate: d("2005-01-01"), Span: span("2012-01-02", "2018-01-01"), OpenAtEnd: true},
	}}
	fixInterRIR(res)
	if len(res.Runs) != 2 {
		t.Fatalf("transferred run dropped: %+v (report %+v)", res.Runs, res.Report)
	}
	if res.Report.MistakenRecordsDropped != 0 {
		t.Errorf("report = %+v", res.Report)
	}
}

func TestPlaceholderCountedOncePerRun(t *testing.T) {
	erx := registry.ERXEntry{ASN: 20500, RegDate: d("1995-04-10")}
	files := []*delegation.File{
		file(asn.RIPENCC, rec(asn.RIPENCC, 20500, "FR", "1995-04-10")),
	}
	for i := 0; i < 10; i++ {
		files = append(files, file(asn.RIPENCC, rec(asn.RIPENCC, 20500, "FR", "1993-09-01")))
	}
	res := restoreOne(days(asn.RIPENCC, "2010-01-01", files...), erx)
	if res.Report.PlaceholdersRestored != 1 {
		t.Errorf("PlaceholdersRestored = %d, want 1", res.Report.PlaceholdersRestored)
	}
	if res.RunsOf(20500)[0].RegDate != d("1995-04-10") {
		t.Errorf("regDate = %v", res.RunsOf(20500)[0].RegDate)
	}
}

// tieSources returns five fresh sources, RIPE NCC's first, in which two
// transfers leave a run of the origin registry and a run of the
// destination registry starting on the same day: AS1500 moves ARIN →
// RIPE NCC and AS20500 moves RIPE NCC → ARIN on 2010-01-05, and each
// origin keeps the record a day longer as reserved.
func tieSources() []registry.Source {
	const start = "2010-01-01"
	alloc := func(rir asn.RIR, a asn.ASN, reg string) delegation.Record { return rec(rir, a, "US", reg) }
	reserved := func(rir asn.RIR, a asn.ASN, reg string) delegation.Record {
		return recStatus(rir, a, reg, delegation.StatusReserved)
	}
	var arin, ripe []*delegation.File
	for i := 0; i < 6; i++ {
		if i < 4 {
			arin = append(arin, file(asn.ARIN, alloc(asn.ARIN, 1500, start)))
			ripe = append(ripe, file(asn.RIPENCC, alloc(asn.RIPENCC, 20500, start)))
			continue
		}
		arin = append(arin, file(asn.ARIN, reserved(asn.ARIN, 1500, start), alloc(asn.ARIN, 20500, "2010-01-05")))
		ripe = append(ripe, file(asn.RIPENCC, alloc(asn.RIPENCC, 1500, "2010-01-05"), reserved(asn.RIPENCC, 20500, start)))
	}
	apnic := file(asn.APNIC, alloc(asn.APNIC, 40000, start))
	lacnic := file(asn.LACNIC, alloc(asn.LACNIC, 46500, start))
	afrinic := file(asn.AfriNIC, alloc(asn.AfriNIC, 36500, start))
	return []registry.Source{
		days(asn.RIPENCC, start, ripe...),
		days(asn.ARIN, start, arin...),
		days(asn.APNIC, start, apnic, apnic, apnic),
		days(asn.LACNIC, start, lacnic),
		days(asn.AfriNIC, start, afrinic, afrinic, afrinic, afrinic, afrinic, afrinic),
	}
}

// TestRestoreOrderUnderTies pins the one ordering decision of the
// per-registry fan-out: runs are sorted by (ASN, span start), ties keep
// source order, and the result is the same for every worker count —
// with and without the inter-RIR repair.
func TestRestoreOrderUnderTies(t *testing.T) {
	srcIdx := map[asn.RIR]int{}
	for i, s := range tieSources() {
		srcIdx[s.Registry()] = i
	}
	for _, opts := range []Options{{NoInterRIRFix: true}, {}} {
		ref, err := RestoreParallelContext(context.Background(), tieSources(), nil, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		ties := 0
		for i := 1; i < len(ref.Runs); i++ {
			p, r := ref.Runs[i-1], ref.Runs[i]
			switch {
			case p.ASN > r.ASN || p.ASN == r.ASN && p.Span.Start > r.Span.Start:
				t.Errorf("%+v: run %d (%v from %v) sorts after run %d (%v from %v)", opts, i-1, p.ASN, p.Span.Start, i, r.ASN, r.Span.Start)
			case p.ASN == r.ASN && p.Span.Start == r.Span.Start:
				ties++
				if srcIdx[p.RIR] >= srcIdx[r.RIR] {
					t.Errorf("%+v: tie on %v at %v: %v before %v, against source order", opts, r.ASN, r.Span.Start, p.RIR, r.RIR)
				}
			}
		}
		if ties != 2 {
			t.Errorf("%+v: %d ties, want 2 (the table no longer tests tie order)", opts, ties)
		}
		for a, want := range map[asn.ASN][]asn.RIR{
			1500:  {asn.ARIN, asn.RIPENCC, asn.ARIN},
			20500: {asn.RIPENCC, asn.RIPENCC, asn.ARIN},
		} {
			var got []asn.RIR
			for _, r := range ref.RunsOf(a) {
				got = append(got, r.RIR)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: AS%d runs from %v, want %v", opts, a, got, want)
			}
		}
		for _, workers := range []int{2, 5} {
			got, err := RestoreParallelContext(context.Background(), tieSources(), nil, opts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%+v: workers=%d result differs from workers=1", opts, workers)
			}
		}
	}
}

// mergeDays returns six days of one source whose files hold every case
// the per-day merge resolves: a block overlapping single records,
// reserved/allocated duplicates in both orders, an available row, a
// status flip, a vanished ASN, a missing day, and a regular file that
// repeats an ASN the extended file dropped. Rows are sorted by ASN; rows
// whose ASN ranges overlap are in the order the test means them. Several
// days share one *File, as sources may yield.
func mergeDays() []registry.Snapshot {
	const start = "2010-01-01"
	alloc := func(a asn.ASN, cc string) delegation.Record { return rec(asn.ARIN, a, cc, start) }
	with := func(r delegation.Record, st delegation.Status) delegation.Record {
		r.Status = st
		return r
	}
	block := alloc(1500, "US")
	block.Count = 4
	ext := func(recs1610, recs1620 []delegation.Record) *delegation.File {
		recs := []delegation.Record{
			block,
			with(alloc(1501, "CA"), delegation.StatusAssigned), // both delegated: the block's row wins
			with(alloc(1502, ""), delegation.StatusReserved),   // the block's delegated row wins
			with(alloc(1600, ""), delegation.StatusReserved), alloc(1600, "BR"),
		}
		recs = append(recs, recs1610...)
		recs = append(recs, recs1620...)
		recs = append(recs, with(alloc(1700, ""), delegation.StatusAvailable))
		for a := asn.ASN(1900); a < 1940; a++ { // enough rows that sorting leaves insertion sort
			recs = append(recs, alloc(a, "US"))
		}
		return file(asn.ARIN, recs...)
	}
	reserved1620 := []delegation.Record{with(alloc(1620, ""), delegation.StatusReserved), with(alloc(1620, "ZZ"), delegation.StatusReserved)}
	e0 := ext([]delegation.Record{alloc(1610, "AR"), with(alloc(1610, ""), delegation.StatusReserved)}, reserved1620)
	e1 := ext(nil, []delegation.Record{alloc(1620, "CL")})
	reg := &delegation.File{Registry: asn.ARIN, ASNs: []delegation.Record{
		block, alloc(1600, "BR"),
		alloc(1800, "MX"), with(alloc(1800, ""), delegation.StatusReserved), alloc(1800, "US"),
	}}
	day := d(start)
	return []registry.Snapshot{
		{Day: day, Extended: e0, Regular: reg},
		{Day: day.AddDays(1), Extended: e1, Regular: reg},
		{Day: day.AddDays(2), ExtendedCorrupt: true},
		{Day: day.AddDays(3), Extended: e0, Regular: reg},
		{Day: day.AddDays(4), Regular: reg},
		{Day: day.AddDays(5), Extended: e0},
	}
}

// TestRestoreMergeIgnoresRowOrder: restoration depends on each ASN's rows
// in file order, not on where they sit among other ASNs' rows, and never
// writes into the files it reads. Every file of mergeDays is permuted by
// random swaps of adjacent rows whose ASN ranges do not overlap; the
// result must equal the sorted files' result, and every file must equal
// its copy taken before the scan (rendering would not show a reordering:
// the renderer sorts rows).
func TestRestoreMergeIgnoresRowOrder(t *testing.T) {
	restoreUnchanged := func(snaps []registry.Snapshot) *Result {
		t.Helper()
		before := map[*delegation.File]*delegation.File{}
		for _, s := range snaps {
			for _, f := range []*delegation.File{s.Regular, s.Extended} {
				before[f] = f.Clone()
			}
		}
		res := restoreOne(&fakeSource{rir: asn.ARIN, snaps: snaps})
		for f, c := range before {
			if !reflect.DeepEqual(f, c) {
				t.Fatalf("Restore changed a file it was given: %+v, was %+v", f, c)
			}
		}
		return res
	}
	want := restoreUnchanged(mergeDays())
	if rep := want.Report; rep.DuplicatesResolved == 0 || rep.RecoveredFromRegular == 0 ||
		rep.DivergenceReconciled == 0 || rep.MissingFileDays != 1 {
		t.Fatalf("mergeDays no longer exercises the merge: %+v", rep)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perm := map[*delegation.File]*delegation.File{}
		shuffled := false
		permute := func(f *delegation.File) *delegation.File {
			if f == nil || perm[f] != nil {
				return perm[f]
			}
			p := f.Clone()
			rows := p.ASNs
			for n := 0; n < 50*len(rows); n++ {
				i := rng.Intn(len(rows) - 1)
				a, b := rows[i], rows[i+1]
				if a.ASN+asn.ASN(a.Count) <= b.ASN || b.ASN+asn.ASN(b.Count) <= a.ASN {
					rows[i], rows[i+1] = b, a
				}
			}
			shuffled = shuffled || !slices.IsSortedFunc(rows, func(a, b delegation.Record) int { return cmp.Compare(a.ASN, b.ASN) })
			perm[f] = p
			return p
		}
		snaps := mergeDays()
		for i := range snaps {
			snaps[i].Regular, snaps[i].Extended = permute(snaps[i].Regular), permute(snaps[i].Extended)
		}
		if !shuffled {
			t.Fatalf("seed %d: no file left out of ASN order", seed)
		}
		if got := restoreUnchanged(snaps); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: permuted files restore to\n%+v\nsorted files to\n%+v", seed, got, want)
		}
	}
}
