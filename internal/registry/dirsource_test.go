package registry

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/worldsim"
)

func TestExportDirRoundTrip(t *testing.T) {
	cfg := worldsim.DefaultConfig()
	cfg.Scale = 0.01
	cfg.Start = dates.MustParse("2005-01-01")
	cfg.End = dates.MustParse("2005-06-30")
	w := worldsim.Generate(cfg)
	a := Build(w)

	dir := t.TempDir()
	from := dates.MustParse("2005-03-01")
	to := dates.MustParse("2005-04-30")
	if err := a.ExportDir(dir, from, to); err != nil {
		t.Fatal(err)
	}

	for _, r := range asn.All() {
		src, err := NewDirSource(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		if src.Registry() != r {
			t.Fatal("wrong registry")
		}
		direct := a.Source(r)
		// Skip the direct source ahead to the export window.
		var dsnap Snapshot
		for {
			var ok bool
			dsnap, ok = direct.Next()
			if !ok {
				t.Fatal("direct source exhausted early")
			}
			if dsnap.Day >= from {
				break
			}
		}
		days := 0
		for {
			fsnap, ok := src.Next()
			if !ok {
				break
			}
			if fsnap.Day != dsnap.Day {
				t.Fatalf("day mismatch: %v vs %v", fsnap.Day, dsnap.Day)
			}
			if (fsnap.Regular == nil) != (dsnap.Regular == nil) {
				t.Fatalf("%v regular presence differs", fsnap.Day)
			}
			if fsnap.Regular != nil && len(fsnap.Regular.ASNs) != len(dsnap.Regular.ASNs) {
				t.Fatalf("%v regular record count differs: %d vs %d",
					fsnap.Day, len(fsnap.Regular.ASNs), len(dsnap.Regular.ASNs))
			}
			days++
			var ok2 bool
			dsnap, ok2 = direct.Next()
			if !ok2 && days < to.Sub(from) {
				t.Fatal("direct source ended early")
			}
		}
		if days < 50 {
			t.Fatalf("only %d days streamed", days)
		}
	}

	// What RIR FTP mirrors keep beside every snapshot — a checksum, a
	// signature — must not change anything: the siblings embed the same
	// date, and matching them would shadow the real files.
	drain := func(r asn.RIR) ([]Snapshot, IngestReport) {
		src, err := NewDirSource(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		var snaps []Snapshot
		for snap, ok := src.Next(); ok; snap, ok = src.Next() {
			// A snapshot is valid until the next Next: keep copies.
			snap.Regular, snap.Extended = snap.Regular.Clone(), snap.Extended.Clone()
			snaps = append(snaps, snap)
		}
		return snaps, src.Report()
	}
	rirs := asn.All()
	wantSnaps, wantReports := make([][]Snapshot, len(rirs)), make([]IngestReport, len(rirs))
	for i, r := range rirs {
		wantSnaps[i], wantReports[i] = drain(r)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, ext := range []string{".md5", ".asc"} {
			if err := os.WriteFile(filepath.Join(dir, e.Name()+ext), []byte("d41d8cd98f00b204e9800998ecf8427e\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, r := range rirs {
		snaps, rep := drain(r)
		if !reflect.DeepEqual(rep, wantReports[i]) {
			t.Errorf("%s: report with siblings = %+v, without = %+v", r.Token(), rep, wantReports[i])
		}
		if !reflect.DeepEqual(snaps, wantSnaps[i]) {
			t.Errorf("%s: streamed snapshots changed when .md5/.asc siblings appeared", r.Token())
		}
	}
}

func TestNewDirSourceErrors(t *testing.T) {
	if _, err := NewDirSource(t.TempDir(), asn.APNIC); err == nil {
		t.Error("empty dir should fail")
	}
	if _, err := NewDirSource("/nonexistent-path-xyz", asn.APNIC); err == nil {
		t.Error("missing dir should fail")
	}
}

func TestDirSourceSkipsForeignAndJunkFiles(t *testing.T) {
	dir := t.TempDir()
	// One valid APNIC file, one RIPE file, one junk file, one unparseable.
	valid := "2|apnic|20040101|1|19930901|20040101|+1000\napnic|JP|asn|38500|1|20040101|allocated\n"
	if err := os.WriteFile(filepath.Join(dir, "delegated-apnic-20040101"), []byte(valid), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "delegated-ripencc-20040101"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "delegated-apnic-20040102"), []byte("garbage|file"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewDirSource(dir, asn.APNIC)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := src.Next()
	if !ok || snap.Regular == nil || len(snap.Regular.ASNs) != 1 {
		t.Fatalf("first snapshot = %+v, ok=%v", snap, ok)
	}
	snap, ok = src.Next()
	if !ok || snap.Regular != nil {
		t.Fatalf("garbage file should read as missing: %+v", snap)
	}
	if !snap.RegularCorrupt {
		t.Error("garbage file should read as corrupt, not merely missing")
	}
	if _, ok := src.Next(); ok {
		t.Error("source should end after the last named day")
	}
	rep := src.Report()
	if rep.FilesMatched != 2 || rep.UnusableFiles != 1 || len(rep.CorruptNames) != 0 {
		t.Errorf("ingest report = %+v", rep)
	}
}

func TestDirSourceCountsCorruptNames(t *testing.T) {
	dir := t.TempDir()
	valid := "2|apnic|20040101|1|19930901|20040101|+1000\napnic|JP|asn|38500|1|20040101|allocated\n"
	for name, content := range map[string]string{
		"delegated-apnic-20040101": valid,
		// Delegation-named files whose embedded date is garbage: corrupt
		// snapshots, recorded by name rather than silently skipped.
		"delegated-apnic-2004010x":          valid,
		"delegated-apnic-extended-00000000": valid,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewDirSource(dir, asn.APNIC)
	if err != nil {
		t.Fatal(err)
	}
	rep := src.Report()
	if rep.FilesMatched != 1 || len(rep.CorruptNames) != 2 {
		t.Errorf("ingest report = %+v", rep)
	}
}

// TestDirSourceSharedParserMatchesFreshParse: the one parser, one read
// buffer and two File slots a DirSource holds change nothing it yields.
// Every file of an exported archive (corrupt days included) is compared,
// while its snapshot is valid (before the next Next parses into the same
// slots), with a fresh parse of the file's own bytes.
func TestDirSourceSharedParserMatchesFreshParse(t *testing.T) {
	a := Build(smallWorld(t))
	start, end := a.Window()
	for _, r := range []asn.RIR{asn.RIPENCC, asn.ARIN} {
		// A window around the registry's first corrupt file day.
		from := start
		for from < end && a.Status(r, from, false) != FileCorrupt && a.Status(r, from, true) != FileCorrupt {
			from = from.AddDays(1)
		}
		from = from.AddDays(-30)
		dir := t.TempDir()
		if err := a.ExportDir(dir, from, from.AddDays(60)); err != nil {
			t.Fatal(err)
		}
		src, err := NewDirSource(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for snap, ok := src.Next(); ok; snap, ok = src.Next() {
			for _, f := range []struct {
				name    string
				got     *delegation.File
				corrupt bool
			}{
				{"delegated-" + r.Token() + "-" + snap.Day.Compact(), snap.Regular, snap.RegularCorrupt},
				{"delegated-" + r.Token() + "-extended-" + snap.Day.Compact(), snap.Extended, snap.ExtendedCorrupt},
			} {
				data, err := os.ReadFile(filepath.Join(dir, f.name))
				if err != nil {
					if f.got != nil || f.corrupt {
						t.Fatalf("%s: yielded (corrupt=%v) but unreadable: %v", f.name, f.corrupt, err)
					}
					continue
				}
				files++
				want, _ := delegation.ParseLenientBytes(data)
				if want != nil && len(want.ASNs) == 0 && len(want.Other) == 0 {
					want = nil
				}
				if f.corrupt != (want == nil) || !reflect.DeepEqual(f.got, want) {
					t.Fatalf("%s: shared-parser file (corrupt=%v) differs from a fresh parse of its bytes", f.name, f.corrupt)
				}
			}
		}
		if files < 50 || src.Report().UnusableFiles == 0 {
			t.Fatalf("%s: %d files compared, %d of them corrupt; want a window with both", r.Token(), files, src.Report().UnusableFiles)
		}
	}
}
