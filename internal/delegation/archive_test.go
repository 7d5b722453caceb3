package delegation

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
)

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

	// Every name FileName produces is read back as its registry, day and
	// format; the .md5, .asc and -latest siblings an RIR mirror keeps
	// beside it are not snapshots. Each registry's regular file sits one
	// day before its extended file, so a swapped format shows as a wrong day.
	dir = t.TempDir()
	regDay := dates.MustParse("2010-06-01")
	for i, r := range asn.All() {
		lo16, _, _ := IANABlocks(r)
		for _, extended := range []bool{false, true} {
			d := regDay.AddDays(2 * i)
			row := r.Token() + "|ZZ|asn|" + lo16.String() + "|1|20100101|allocated"
			if extended {
				d = d.AddDays(1)
				row += "|opaque"
			}
			name := FileName(r, d, extended)
			body := "2|" + r.Token() + "|" + d.Compact() + "|1|19930901|" + d.Compact() + "|+0000\n" + row + "\n"
			latest := strings.TrimSuffix(name, d.Compact()) + "latest"
			for file, content := range map[string]string{
				name: body, name + ".md5": "d41d8cd98f00b204e9800998ecf8427e\n", name + ".asc": "-----BEGIN PGP SIGNATURE-----\n", latest: body,
			} {
				if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, r := range asn.All() {
		src, err := NewDirSource(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		want := regDay.AddDays(2 * i)
		snap, ok := src.Next()
		if !ok || snap.Day != want || snap.Regular == nil || snap.Extended != nil || snap.Regular.Registry != r {
			t.Fatalf("%s: first snapshot = %+v, ok=%v; want the regular file on %s", r.Token(), snap, ok, want)
		}
		snap, ok = src.Next()
		if !ok || snap.Day != want.AddDays(1) || snap.Regular != nil || snap.Extended == nil || !snap.Extended.Extended {
			t.Fatalf("%s: second snapshot = %+v, ok=%v; want the extended file on %s", r.Token(), snap, ok, want.AddDays(1))
		}
		if _, ok := src.Next(); ok {
			t.Errorf("%s: source should end after the extended file's day", r.Token())
		}
		if rep := src.Report(); rep.FilesMatched != 2 || rep.UnusableFiles != 0 || len(rep.CorruptNames) != 0 {
			t.Errorf("%s: ingest report = %+v, want the two named files only", r.Token(), rep)
		}
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

// TestParseUsable pins the one rule every archive reader applies: a file
// is usable when a header parses and at least one resource row follows.
func TestParseUsable(t *testing.T) {
	const header = "2|ripencc|20100601|1|19930901|20100601|+0000\n"
	for _, tc := range []struct {
		name, data string
		usable     bool
	}{
		{"header only", header + "ripencc|*|asn|*|0|summary\n", false},
		{"non-asn rows only", header + "ripencc|NL|ipv4|193.0.0.0|2048|19930901|allocated\n", true},
		{"asn rows", header + "ripencc|NL|asn|3333|1|19930901|allocated\n", true},
		{"unparseable", "2&ripencc&20100601&1\nripencc|NL|asn|33", false},
	} {
		var p Parser
		f := p.ParseUsable(new(File), []byte(tc.data))
		if (f != nil) != tc.usable {
			t.Errorf("%s: usable = %v, want %v", tc.name, f != nil, tc.usable)
		}
	}
}
