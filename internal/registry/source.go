package registry

import (
	"bytes"
	"os"
	"path/filepath"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
)

// dropped reports whether ASN x is suppressed from r's extended file on d.
func (a *Archive) dropped(r asn.RIR, x asn.ASN, d dates.Day) bool {
	for _, ep := range a.dropEpisodes[r] {
		if ep.Days.Contains(d) && x >= ep.ALo && x <= ep.AHi {
			return true
		}
	}
	return false
}

// textSource serializes each file to delegation-file text and re-parses
// it leniently — the full wire-format round trip, including corrupt days
// whose mangled bytes fail to parse. The renderer and build scratch are
// reused across days, and every day is parsed by one regular and one
// extended delegation.Series: a source is consumed by exactly one
// goroutine, and a snapshot is valid until the next Next.
type textSource struct {
	a       *Archive
	rir     asn.RIR
	day     dates.Day
	rend    delegation.Renderer
	scratch fileScratch

	reg, ext delegation.Series // every day's files are parsed by these
}

// TextSource returns a Source that round-trips every file through its
// textual delegation-file form before yielding it, one day at a time
// from the registry's first file date (clamped to the archive window,
// so truncated-window configurations do not emit empty pre-window
// files) to the window end.
func (a *Archive) TextSource(r asn.RIR) delegation.Source {
	return &textSource{a: a, rir: r, day: dates.Max(delegation.FirstRegular(r), a.start)}
}

func (s *textSource) Registry() asn.RIR { return s.rir }

func (s *textSource) Next() (delegation.Snapshot, bool) {
	_, end := s.a.Window()
	if s.day > end {
		return delegation.Snapshot{}, false
	}
	d := s.day
	s.day = s.day.AddDays(1)
	snap := delegation.Snapshot{Day: d}
	snap.Regular, snap.RegularCorrupt = s.roundTrip(d, false)
	snap.Extended, snap.ExtendedCorrupt = s.roundTrip(d, true)
	return snap, true
}

// roundTrip yields the day's file after the text round trip; corrupt
// reports a file that existed but was unusable (delegation.Series.Parse).
// Corrupt days round-trip their mangled bytes.
func (s *textSource) roundTrip(d dates.Day, extended bool) (f *delegation.File, corrupt bool) {
	series := &s.reg
	if extended {
		series = &s.ext
	}
	var data []byte
	switch s.a.Status(s.rir, d, extended) {
	case FileAbsent:
		return nil, false
	case FileCorrupt:
		data = s.a.CorruptBytes(s.rir, d, extended)
	default:
		data = s.rend.Render(s.a.buildFile(s.rir, d, extended, &s.scratch))
	}
	f = series.Parse(data)
	return f, f == nil
}

// CorruptBytes renders the mangled content of a corrupt file day: a
// truncated file with a broken header, as found in real archives.
func (a *Archive) CorruptBytes(r asn.RIR, d dates.Day, extended bool) []byte {
	f := a.buildFile(r, d, extended, nil)
	if f == nil {
		return nil
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		return nil
	}
	b := buf.Bytes()
	// Chop the file mid-line and damage the header's field separators.
	if len(b) > 40 {
		b = b[:len(b)/3]
	}
	for i := 0; i < len(b) && i < 30; i++ {
		if b[i] == '|' {
			b[i] = '&'
		}
	}
	return b
}

// FileCount returns the number of days with at least one retrievable
// (even if corrupt) delegation file for the registry — the archive
// inventory reported in Table 1.
func (a *Archive) FileCount(r asn.RIR) int {
	n := 0
	for d := delegation.FirstRegular(r); d <= a.end; d = d.AddDays(1) {
		if a.Status(r, d, false) != FileAbsent || a.Status(r, d, true) != FileAbsent {
			n++
		}
	}
	return n
}

// ExportDir writes the archive's files for [from, to] into dir under
// their RIR FTP names (delegation.FileName), producing an on-disk archive
// delegation.NewDirSource can read back. Corrupt days are written with
// their mangled bytes; missing days are skipped.
func (a *Archive) ExportDir(dir string, from, to dates.Day) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range asn.All() {
		for d := from; d <= to; d = d.AddDays(1) {
			for _, extended := range []bool{false, true} {
				path := filepath.Join(dir, delegation.FileName(r, d, extended))
				switch a.Status(r, d, extended) {
				case FileAbsent:
					continue
				case FileCorrupt:
					if err := os.WriteFile(path, a.CorruptBytes(r, d, extended), 0o644); err != nil {
						return err
					}
				case FilePresent:
					f, err := os.Create(path)
					if err != nil {
						return err
					}
					if _, err := a.buildFile(r, d, extended, nil).WriteTo(f); err != nil {
						f.Close()
						return err
					}
					if err := f.Close(); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
