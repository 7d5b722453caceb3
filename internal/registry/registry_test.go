package registry

import (
	"bytes"
	"reflect"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/worldsim"
)

func smallWorld(t *testing.T) *worldsim.World {
	t.Helper()
	cfg := worldsim.DefaultConfig()
	cfg.Scale = 0.01
	return worldsim.Generate(cfg)
}

func TestFileReflectsAllocatedLives(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	day := dates.MustParse("2015-06-15")

	for _, r := range asn.All() {
		f := a.File(r, day, true)
		if f == nil {
			// Missing/corrupt day; pick the next present one.
			for f == nil {
				day = day.AddDays(1)
				f = a.File(r, day, true)
			}
		}
		allocated := make(map[asn.ASN]delegation.Record)
		for _, rec := range f.Expand() {
			if rec.Status.Delegated() {
				allocated[rec.ASN] = rec
			}
		}
		// Every ground-truth life alive and published on `day` must appear.
		missing := 0
		for _, l := range w.Lives {
			if l.RIR != r || day < l.FileFrom || day > l.Alloc.End {
				continue
			}
			if _, ok := allocated[l.ASN]; !ok && !a.dropped(r, l.ASN, day) {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("%v: %d published lives missing from file", r, missing)
		}
	}
}

func TestExtendedOnlyStatesAbsentFromRegular(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	day := dates.MustParse("2016-03-03")
	for _, r := range asn.All() {
		if r == asn.ARIN {
			continue // no regular file this late
		}
		f := a.File(r, day, false)
		if f == nil {
			continue
		}
		for _, rec := range f.ASNs {
			if rec.Status == delegation.StatusReserved || rec.Status == delegation.StatusAvailable {
				t.Errorf("%v regular file contains %v record", r, rec.Status)
			}
			if rec.OpaqueID != "" {
				t.Errorf("%v regular file contains opaque id", r)
			}
		}
	}
}

func TestAvailablePartitionsPool(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	day := dates.MustParse("2018-01-10")
	for f := a.File(asn.RIPENCC, day, true); ; day = day.AddDays(1) {
		f = a.File(asn.RIPENCC, day, true)
		if f == nil {
			continue
		}
		// Within the 16-bit pool, every ASN is exactly one of
		// delegated/reserved/available.
		counts := make(map[asn.ASN]int)
		for _, rec := range f.Expand() {
			if rec.ASN >= 20000 && rec.ASN <= 35999 {
				counts[rec.ASN]++
			}
		}
		dup := 0
		for a16 := asn.ASN(20000); a16 <= 35999; a16++ {
			switch counts[a16] {
			case 1:
			default:
				dup++
			}
		}
		// AfriNIC-style duplicates are planted only in AfriNIC; RIPE
		// should partition cleanly except for stale-transfer overlaps
		// (which live in the *other* RIR's file, not this one).
		if dup > 0 {
			t.Errorf("%d pool ASNs not covered exactly once", dup)
		}
		return
	}
}

// TestTextSourceMatchesBuiltFiles: the text round trip yields the
// archive's own files, and flags exactly its corrupt days.
func TestTextSourceMatchesBuiltFiles(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	r := asn.APNIC
	text := a.TextSource(r)
	days := 0
	for ts, ok := text.Next(); ok; ts, ok = text.Next() {
		for _, f := range []struct {
			extended bool
			got      *delegation.File
			corrupt  bool
		}{{false, ts.Regular, ts.RegularCorrupt}, {true, ts.Extended, ts.ExtendedCorrupt}} {
			want := a.File(r, ts.Day, f.extended)
			if (f.got == nil) != (want == nil) {
				t.Fatalf("day %v extended=%v: presence mismatch", ts.Day, f.extended)
			}
			if want != nil && !reflect.DeepEqual(f.got.ASNs, want.ASNs) {
				t.Fatalf("day %v extended=%v: round-tripped records differ from the built file", ts.Day, f.extended)
			}
			if f.corrupt != (a.Status(r, ts.Day, f.extended) == FileCorrupt) {
				t.Fatalf("day %v extended=%v: corrupt=%v, status %v", ts.Day, f.extended, f.corrupt, a.Status(r, ts.Day, f.extended))
			}
		}
		days++
		if days > 1200 {
			break // a few years of days is plenty for this check
		}
	}
	if days == 0 {
		t.Fatal("no days scanned")
	}
}

func TestCorruptBytesDoNotParse(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	found := false
	for _, r := range asn.All() {
		for d := range a.corruptReg[r] {
			b := a.CorruptBytes(r, d, false)
			if len(b) == 0 {
				continue
			}
			f, errs := delegation.ParseLenient(bytes.NewReader(b))
			if f != nil && len(f.ASNs) > 0 && len(errs) == 0 {
				t.Errorf("corrupt bytes parsed cleanly for %v %v", r, d)
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("no corrupt regular days in this world")
	}
}

func TestFileCountsNearWindowLength(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	for _, r := range asn.All() {
		n := a.FileCount(r)
		total := w.Config.End.Sub(delegation.FirstRegular(r)) + 1
		if n > total || float64(n) < 0.97*float64(total) {
			t.Errorf("%v: file count %d vs %d window days", r, n, total)
		}
	}
}

func TestInjectionStatsPopulated(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	st := a.InjectionStats()
	t.Logf("%+v", st)
	if st.MissingFileDays == 0 || st.PlaceholderASNs == 0 || st.MistakenAllocASNs == 0 {
		t.Error("expected injected corruption populations")
	}
	if len(a.ERXReference()) == 0 {
		t.Error("expected ERX reference data")
	}
}

func TestPlaceholderDatesAppearInFiles(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	day := dates.MustParse("2012-06-01")
	var f *delegation.File
	for f == nil {
		f = a.File(asn.RIPENCC, day, true)
		day = day.AddDays(1)
	}
	found := false
	for _, rec := range f.ASNs {
		if rec.Date == dates.MustParse("1993-09-01") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no placeholder registration dates visible in 2012 RIPE file")
	}
}
