package bgpscan

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"parallellives/internal/collector"
	"parallellives/internal/dates"
	"parallellives/internal/worldsim"
)

// mrtCorpus reads the committed FuzzDecodeMRT seed corpus: files in the
// "go test fuzz v1" encoding holding one []byte literal each.
func mrtCorpus(f *testing.F) [][]byte {
	f.Helper()
	files, err := filepath.Glob("../mrt/testdata/fuzz/FuzzDecodeMRT/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("no FuzzDecodeMRT corpus: %v", err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := bytes.Cut(raw, []byte("\n"))
		lit = bytes.TrimSuffix(bytes.TrimPrefix(bytes.TrimSpace(lit), []byte("[]byte(")), []byte(")"))
		s, err := strconv.Unquote(string(lit))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzObserveMRT holds the interning scanner to the referenceScanner on
// arbitrary bytes, with Quarantine on and off: the same error or nil from
// every ObserveMRT, the same Stats after it, the same Activity at the
// end. The bytes are scanned after a well-formed archive and again the
// next day, so whatever blocks they intern meet a populated table, are
// repeated, and are carried over.
func FuzzObserveMRT(f *testing.F) {
	cfg := worldsim.DefaultConfig()
	cfg.Scale = 0.005
	cfg.Start, cfg.End = dates.MustParse("2004-01-01"), dates.MustParse("2004-03-01")
	it := collector.New(worldsim.Generate(cfg)).IterRange(cfg.Start, cfg.End)
	if !it.Next() {
		f.Fatal("empty world")
	}
	ribs, upds, err := it.MRT()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range mrtCorpus(f) {
		f.Add(seed)
	}
	f.Add(ribs[0])
	f.Add(upds[0])
	f.Add(dirtyArchive(f, 0))
	warm := dirtyArchive(f, 1)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, quarantine := range []bool{false, true} {
			ref := newReferenceScanner(MinPeerVisibility)
			s := NewScanner()
			ref.Quarantine, s.Quarantine = quarantine, quarantine
			for d, archives := range [][][]byte{{warm, data, data}, {data, warm}} {
				ref.BeginDay(cfg.Start.AddDays(d))
				s.BeginDay(cfg.Start.AddDays(d))
				for _, a := range archives {
					want, got := ref.ObserveMRT(a), s.ObserveMRT(a)
					if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
						t.Fatalf("quarantine=%v: error %v, reference %v", quarantine, got, want)
					}
					if s.Stats() != ref.Stats() {
						t.Fatalf("quarantine=%v: stats\n got  %+v\n want %+v", quarantine, s.Stats(), ref.Stats())
					}
				}
				ref.EndDay()
				s.EndDay()
			}
			if got, want := s.Finish(), ref.Finish(); !reflect.DeepEqual(got, want) {
				t.Fatalf("quarantine=%v: %s", quarantine, diffActivity(got, want))
			}
		}
	})
}
