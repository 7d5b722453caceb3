package restore

import (
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
