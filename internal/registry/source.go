package registry

import (
	"bytes"

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

// Snapshot is one registry-day of delegation data: either file may be nil
// when absent or unparseable. A Snapshot and its files are valid until the
// next Next on the Source that yielded it, which may parse into the same
// File slots; a consumer that keeps a day longer clones its files.
type Snapshot struct {
	Day      dates.Day
	Regular  *delegation.File
	Extended *delegation.File
	// RegularCorrupt / ExtendedCorrupt report that the day's file existed
	// in the archive but was unusable — retrieved bytes that failed to
	// parse, as opposed to a file that was never there. The corresponding
	// File field is nil; the restoration pipeline bridges the day either
	// way but counts the two classes separately.
	RegularCorrupt  bool
	ExtendedCorrupt bool
}

// Source streams one registry's snapshots in day order — the interface
// the restoration pipeline consumes. Implementations outside this package
// can feed the pipeline from real archives.
type Source interface {
	Registry() asn.RIR
	// Next returns the next day's snapshot; ok is false at end of stream.
	// The snapshot and its files are valid until the following Next.
	Next() (Snapshot, bool)
}

// directSource yields file objects straight from the archive.
type directSource struct {
	a   *Archive
	rir asn.RIR
	day dates.Day
}

// Source returns a Source yielding materialized file objects, one day at
// a time from the registry's first file date (clamped to the archive
// window, so truncated-window configurations do not emit empty
// pre-window files) to the window end.
func (a *Archive) Source(r asn.RIR) Source {
	return &directSource{a: a, rir: r, day: dates.Max(firstRegular[r], a.start)}
}

func (s *directSource) Registry() asn.RIR { return s.rir }

func (s *directSource) Next() (Snapshot, bool) {
	_, end := s.a.Window()
	if s.day > end {
		return Snapshot{}, false
	}
	d := s.day
	s.day = s.day.AddDays(1)
	return Snapshot{
		Day:             d,
		Regular:         s.a.File(s.rir, d, false),
		Extended:        s.a.File(s.rir, d, true),
		RegularCorrupt:  s.a.Status(s.rir, d, false) == FileCorrupt,
		ExtendedCorrupt: s.a.Status(s.rir, d, true) == FileCorrupt,
	}, true
}

// textSource serializes each file to delegation-file text and re-parses
// it leniently — the full wire-format round trip, including corrupt days
// whose mangled bytes fail to parse. The renderer, parser and build
// scratch are reused across days, and every day is parsed into the same
// regular and extended File slots: a source is consumed by exactly one
// goroutine, and a snapshot is valid until the next Next.
type textSource struct {
	a       *Archive
	rir     asn.RIR
	day     dates.Day
	rend    delegation.Renderer
	parser  delegation.Parser
	scratch fileScratch

	reg, ext delegation.File // every day's files are parsed into these
}

// TextSource returns a Source that round-trips every file through its
// textual delegation-file form before yielding it.
func (a *Archive) TextSource(r asn.RIR) Source {
	return &textSource{a: a, rir: r, day: dates.Max(firstRegular[r], a.start)}
}

func (s *textSource) Registry() asn.RIR { return s.rir }

func (s *textSource) Next() (Snapshot, bool) {
	_, end := s.a.Window()
	if s.day > end {
		return Snapshot{}, false
	}
	d := s.day
	s.day = s.day.AddDays(1)
	snap := Snapshot{Day: d}
	snap.Regular, snap.RegularCorrupt = s.roundTrip(d, false)
	snap.Extended, snap.ExtendedCorrupt = s.roundTrip(d, true)
	return snap, true
}

// roundTrip yields the day's file after the text round trip; corrupt
// reports a file that existed but did not survive parsing.
func (s *textSource) roundTrip(d dates.Day, extended bool) (f *delegation.File, corrupt bool) {
	slot := &s.reg
	if extended {
		slot = &s.ext
	}
	switch s.a.Status(s.rir, d, extended) {
	case FileAbsent:
		return nil, false
	case FileCorrupt:
		// Corrupt files exist on disk but do not survive parsing; the
		// pipeline treats them like missing days while counting them as
		// corrupt retrievals.
		f, _ := s.parser.ParseLenientInto(slot, s.a.CorruptBytes(s.rir, d, extended))
		if f != nil && len(f.ASNs) > 0 {
			return f, false
		}
		return nil, true
	}
	f = s.a.buildFileScratch(s.rir, d, extended, &s.scratch)
	parsed, _ := s.parser.ParseLenientInto(slot, s.rend.Render(f))
	return parsed, parsed == nil
}

// CorruptBytes renders the mangled content of a corrupt file day: a
// truncated file with a broken header, as found in real archives.
func (a *Archive) CorruptBytes(r asn.RIR, d dates.Day, extended bool) []byte {
	f := a.buildFile(r, d, extended)
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
	for d := firstRegular[r]; d <= a.end; d = d.AddDays(1) {
		if a.Status(r, d, false) != FileAbsent || a.Status(r, d, true) != FileAbsent {
			n++
		}
	}
	return n
}
