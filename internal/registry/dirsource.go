package registry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
)

// DirSource streams delegation files from a directory on disk, so the
// restoration pipeline can run over real downloaded archives (or the
// files this package exports). Files must be named the way the RIR FTP
// sites name them:
//
//	delegated-<registry>-<YYYYMMDD>            (regular format)
//	delegated-<registry>-extended-<YYYYMMDD>   (extended format)
//
// Days present in neither form are reported as missing snapshots, which
// the restoration's step (i) bridges. Unparseable files are treated as
// corrupt (also missing).
//
// Like textSource, one parser (so country codes and opaque ids are
// interned once per source, not once per file), one read buffer and one
// regular and one extended File slot serve every file: a source is
// consumed by one goroutine, and a snapshot is valid until the next Next.
type DirSource struct {
	rir    asn.RIR
	dir    string
	days   []dates.Day
	reg    map[dates.Day]string
	ext    map[dates.Day]string
	i      int
	rep    IngestReport
	parser delegation.Parser
	buf    bytes.Buffer

	regFile, extFile delegation.File // every day's files are parsed into these
}

// IngestReport classifies what a DirSource scan and stream skipped, so
// damaged archives surface in the pipeline Health report instead of
// silently shrinking the dataset.
type IngestReport struct {
	// FilesMatched counts files with well-formed delegation names.
	FilesMatched int
	// CorruptNames lists files that matched the registry's naming prefix
	// but whose embedded date failed to parse — corrupt snapshots (a
	// mirror glitch or interrupted download), not unrelated files.
	CorruptNames []string
	// UnusableFiles counts named files whose content failed to parse
	// (reported per read as corrupt snapshots in the day stream).
	UnusableFiles int
}

// Report returns the ingest accounting accumulated so far. The name scan
// runs in NewDirSource; UnusableFiles grows as days are streamed.
func (s *DirSource) Report() IngestReport { return s.rep }

// NewDirSource scans dir for one registry's delegation files.
func NewDirSource(dir string, rir asn.RIR) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: reading archive dir: %w", err)
	}
	s := &DirSource{
		rir: rir, dir: dir,
		reg: make(map[dates.Day]string),
		ext: make(map[dates.Day]string),
	}
	prefix := "delegated-" + rir.Token() + "-"
	seen := make(map[dates.Day]bool)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		dateStr, extended := strings.CutPrefix(rest, "extended-")
		if len(dateStr) != 8 {
			// The name must end with the date. What RIR mirrors keep beside
			// each snapshot (.md5, .asc, .gz) and their -latest links are
			// other files, not snapshots — matching them by the date they
			// embed would let a checksum shadow the file it belongs to.
			continue
		}
		d, err := dates.ParseCompact(dateStr)
		if err != nil || d == dates.None {
			// The file is named like a delegation snapshot but carries a
			// garbage date: a corrupt snapshot, recorded so restoration
			// step (i) and the Health report can account for it.
			s.rep.CorruptNames = append(s.rep.CorruptNames, name)
			continue
		}
		s.rep.FilesMatched++
		if extended {
			s.ext[d] = name
		} else {
			s.reg[d] = name
		}
		if !seen[d] {
			seen[d] = true
			s.days = append(s.days, d)
		}
	}
	if len(s.days) == 0 {
		return nil, fmt.Errorf("registry: no %s delegation files in %s", rir.Token(), dir)
	}
	sort.Slice(s.days, func(i, j int) bool { return s.days[i] < s.days[j] })
	// Fill the day grid so missing days are surfaced to the restoration.
	first, last := s.days[0], s.days[len(s.days)-1]
	s.days = s.days[:0]
	for d := first; d <= last; d = d.AddDays(1) {
		s.days = append(s.days, d)
	}
	return s, nil
}

// Registry implements Source.
func (s *DirSource) Registry() asn.RIR { return s.rir }

// Next implements Source.
func (s *DirSource) Next() (Snapshot, bool) {
	if s.i >= len(s.days) {
		return Snapshot{}, false
	}
	d := s.days[s.i]
	s.i++
	snap := Snapshot{Day: d}
	snap.Regular, snap.RegularCorrupt = s.load(s.reg[d], &s.regFile)
	snap.Extended, snap.ExtendedCorrupt = s.load(s.ext[d], &s.extFile)
	return snap, true
}

// load parses one file leniently into slot; corrupt reports a file that
// existed on disk but was unusable (open or read failure, or unparseable
// content).
func (s *DirSource) load(name string, slot *delegation.File) (parsed *delegation.File, corrupt bool) {
	if name == "" {
		return nil, false
	}
	if s.read(name) == nil {
		parsed, _ = s.parser.ParseLenientInto(slot, s.buf.Bytes())
	}
	if parsed == nil || (len(parsed.ASNs) == 0 && len(parsed.Other) == 0) {
		s.rep.UnusableFiles++
		return nil, true
	}
	return parsed, false
}

// read fills buf with the named file, sizing it from Stat so a file is
// read in one pass and the buffer grows only for a larger file.
func (s *DirSource) read(name string) error {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	s.buf.Reset()
	if fi, err := f.Stat(); err == nil {
		// ReadFrom wants MinRead spare bytes to meet EOF without growing.
		s.buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	_, err = s.buf.ReadFrom(f)
	return err
}

// ExportDir writes the archive's files for [from, to] into dir using the
// RIR FTP naming convention, producing an on-disk archive NewDirSource
// can read back. Corrupt days are written with their mangled bytes;
// missing days are skipped.
func (a *Archive) ExportDir(dir string, from, to dates.Day) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range asn.All() {
		for d := from; d <= to; d = d.AddDays(1) {
			for _, extended := range []bool{false, true} {
				name := "delegated-" + r.Token() + "-"
				if extended {
					name += "extended-"
				}
				name += d.Compact()
				path := filepath.Join(dir, name)
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
					if _, err := a.buildFile(r, d, extended).WriteTo(f); err != nil {
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
