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

	// The exported files and the text source parse the same bytes, so
	// each day must yield the same records and the same corrupt flags.
	for _, r := range asn.All() {
		src, err := delegation.NewDirSource(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		if src.Registry() != r {
			t.Fatal("wrong registry")
		}
		text := a.TextSource(r)
		days := 0
		for fsnap, ok := src.Next(); ok; fsnap, ok = src.Next() {
			tsnap, ok := text.Next()
			for ok && tsnap.Day < fsnap.Day {
				tsnap, ok = text.Next()
			}
			if !ok || tsnap.Day != fsnap.Day {
				t.Fatalf("%s: text source has no day %v", r.Token(), fsnap.Day)
			}
			for _, f := range []struct {
				format           string
				file, want       *delegation.File
				corrupt, wantCor bool
			}{
				{"regular", fsnap.Regular, tsnap.Regular, fsnap.RegularCorrupt, tsnap.RegularCorrupt},
				{"extended", fsnap.Extended, tsnap.Extended, fsnap.ExtendedCorrupt, tsnap.ExtendedCorrupt},
			} {
				if (f.file == nil) != (f.want == nil) || f.corrupt != f.wantCor {
					t.Fatalf("%s %v %s: exported file (present=%v corrupt=%v) vs text source (present=%v corrupt=%v)",
						r.Token(), fsnap.Day, f.format, f.file != nil, f.corrupt, f.want != nil, f.wantCor)
				}
				if f.file != nil && !reflect.DeepEqual(f.file.ASNs, f.want.ASNs) {
					t.Fatalf("%s %v %s: exported records differ from the text source's", r.Token(), fsnap.Day, f.format)
				}
			}
			days++
		}
		if days < 50 {
			t.Fatalf("only %d days streamed", days)
		}
	}

	// What RIR FTP mirrors keep beside every snapshot — a checksum, a
	// signature — must not change anything: the siblings embed the same
	// date, and matching them would shadow the real files.
	drain := func(r asn.RIR) ([]delegation.Snapshot, delegation.IngestReport) {
		src, err := delegation.NewDirSource(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		var snaps []delegation.Snapshot
		for snap, ok := src.Next(); ok; snap, ok = src.Next() {
			// A snapshot is valid until the next Next: keep copies.
			snap.Regular, snap.Extended = snap.Regular.Clone(), snap.Extended.Clone()
			snaps = append(snaps, snap)
		}
		return snaps, src.Report()
	}
	rirs := asn.All()
	wantSnaps, wantReports := make([][]delegation.Snapshot, len(rirs)), make([]delegation.IngestReport, len(rirs))
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
		src, err := delegation.NewDirSource(dir, r)
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
