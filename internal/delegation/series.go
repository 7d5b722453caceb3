package delegation

import (
	"bytes"
	"slices"
)

// Series parses a registry's regular, or its extended, files day after
// day. An asn line byte-identical to the line under a cursor over the
// previous file's asn lines reuses that line's record; after an asn line
// parsed afresh the cursor steps over the previous lines numbered at or
// below it, resyncing after edits. Every other line is parsed. Two
// alternating slots hold the two files: Parse always returns the same
// File, valid until the next Parse, which reuses its records, so nothing
// may write into it. The zero value is ready to use, by one goroutine.
type Series struct {
	Parser    // every file of the series goes through it
	cur, prev seriesFile
	j         int // the cursor over prev.ASNs
}

// seriesFile is a parsed file with its asn lines: ASNs[i]'s line is
// lines[ends[i]:ends[i+1]].
type seriesFile struct {
	File
	lines []byte
	ends  []int
}

// Parse parses data leniently and returns the file, or nil when the
// bytes are unusable: no header parses, or no asn or other resource row
// follows it — the one rule of every archive reader. An unusable file
// holds no records, so the next one reuses nothing.
func (s *Series) Parse(data []byte) *File {
	s.cur, s.prev, s.j = s.prev, s.cur, 0
	c, p := &s.cur, &s.prev
	c.lines, c.ends = c.lines[:0], append(c.ends[:0], 0)
	c.ASNs, c.Other = slices.Grow(c.ASNs[:0], len(p.ASNs)), slices.Grow(c.Other[:0], len(p.Other))
	if f, _ := s.parse(&c.File, data, s); f != nil && len(f.ASNs)+len(f.Other) > 0 {
		return f
	}
	return nil
}

// reuse appends the previous record for line to f if line is the asn
// line under the cursor.
func (s *Series) reuse(f *File, line []byte) bool {
	p := &s.prev
	if s.j >= len(p.ASNs) || !bytes.Equal(line, p.lines[p.ends[s.j]:p.ends[s.j+1]]) {
		return false
	}
	f.ASNs = append(f.ASNs, p.ASNs[s.j])
	f.Extended = f.Extended || bytes.Count(line, []byte{'|'}) >= 7
	s.cur.lines = append(s.cur.lines, line...)
	s.cur.ends = append(s.cur.ends, len(s.cur.lines))
	s.j++
	return true
}

// note follows a line parsed afresh; it appended an asn record if f
// holds more than n.
func (s *Series) note(f *File, line []byte, n int) {
	if len(f.ASNs) > n {
		s.cur.lines = append(s.cur.lines, line...)
		s.cur.ends = append(s.cur.ends, len(s.cur.lines))
		for s.j < len(s.prev.ASNs) && s.prev.ASNs[s.j].ASN <= f.ASNs[n].ASN {
			s.j++
		}
	}
}
