package delegation

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
)

// Format adoption dates per RIR (paper Table 1).
var (
	firstRegular = [asn.NumRIRs]dates.Day{
		asn.AfriNIC: dates.MustParse("2005-02-18"),
		asn.APNIC:   dates.MustParse("2003-10-09"),
		asn.ARIN:    dates.MustParse("2003-11-20"),
		asn.LACNIC:  dates.MustParse("2004-01-01"),
		asn.RIPENCC: dates.MustParse("2003-11-26"),
	}
	firstExtended = [asn.NumRIRs]dates.Day{
		asn.AfriNIC: dates.MustParse("2012-10-02"),
		asn.APNIC:   dates.MustParse("2008-02-14"),
		asn.ARIN:    dates.MustParse("2013-03-05"),
		asn.LACNIC:  dates.MustParse("2012-06-28"),
		asn.RIPENCC: dates.MustParse("2010-04-22"),
	}
)

// FirstRegular returns the date of an RIR's first regular delegation file.
func FirstRegular(r asn.RIR) dates.Day { return firstRegular[r] }

// FirstExtended returns the date of an RIR's first extended file.
func FirstExtended(r asn.RIR) dates.Day { return firstExtended[r] }

// ianaBlocks is each registry's 16-bit range and the base of its 32-bit
// range, as the simulated IANA delegations hand them out.
var ianaBlocks = [asn.NumRIRs]struct {
	lo16, hi16, base32 asn.ASN
}{
	asn.AfriNIC: {36000, 37999, 327680},
	asn.APNIC:   {38000, 45999, 131072},
	asn.ARIN:    {1000, 19999, 393216},
	asn.LACNIC:  {46000, 52999, 262144},
	asn.RIPENCC: {20000, 35999, 196608},
}

// IANABlocks returns registry r's 16-bit range [lo16, hi16] and the base
// of its 32-bit range.
func IANABlocks(r asn.RIR) (lo16, hi16, base32 asn.ASN) {
	p := ianaBlocks[r]
	return p.lo16, p.hi16, p.base32
}

// IANABlockHolds reports whether ASN x falls inside the blocks IANA
// delegated to registry r — the public knowledge the paper's §3.1
// step (vi) uses to identify mistaken apparent allocations. The 32-bit
// blocks extend 60,000 numbers above each registry's base.
func IANABlockHolds(r asn.RIR, x asn.ASN) bool {
	p := ianaBlocks[r]
	if x >= p.lo16 && x <= p.hi16 {
		return true
	}
	return x >= p.base32 && x < p.base32+60000
}

// ERXEntry is one line of the pre-delegation-era ARIN reference data the
// paper used to restore original ERX registration dates (§3.1 step v).
type ERXEntry struct {
	ASN     asn.ASN
	RegDate dates.Day
}

// Snapshot is one registry-day of delegation data: either file may be nil
// when absent or unparseable. A Snapshot and its files are valid until the
// next Next on the Source that yielded it, which may parse into the same
// File slots and reuse their records: a consumer never writes into them,
// and one that keeps a day longer clones its files.
type Snapshot struct {
	Day      dates.Day
	Regular  *File
	Extended *File
	// RegularCorrupt / ExtendedCorrupt report that the day's file existed
	// in the archive but was unusable — retrieved bytes that failed to
	// parse, as opposed to a file that was never there. The corresponding
	// File field is nil; the restoration pipeline bridges the day either
	// way but counts the two classes separately.
	RegularCorrupt  bool
	ExtendedCorrupt bool
}

// Source streams one registry's snapshots in day order — the interface
// the restoration pipeline consumes.
type Source interface {
	Registry() asn.RIR
	// Next returns the next day's snapshot; ok is false at end of stream.
	// The snapshot and its files are valid until the following Next.
	Next() (Snapshot, bool)
}

// FileName is the RIR FTP name of registry r's file for day d:
//
//	delegated-<registry>-<YYYYMMDD>            (regular format)
//	delegated-<registry>-extended-<YYYYMMDD>   (extended format)
func FileName(r asn.RIR, d dates.Day, extended bool) string {
	if extended {
		return "delegated-" + r.Token() + "-extended-" + d.Compact()
	}
	return "delegated-" + r.Token() + "-" + d.Compact()
}

// DirSource streams delegation files from a directory on disk, so the
// restoration pipeline can run over real downloaded archives. Files must
// be named as FileName names them. Days present in neither form are
// reported as missing snapshots, which the restoration's step (i)
// bridges. Unusable files (see Series.Parse) are reported as corrupt.
//
// One read buffer and one Series per format serve every file, so country
// codes and opaque ids are interned once per source and unchanged lines
// are parsed once: a source is consumed by one goroutine, and a snapshot
// is valid until the next Next.
type DirSource struct {
	rir  asn.RIR
	dir  string
	days []dates.Day
	reg  map[dates.Day]string
	ext  map[dates.Day]string
	i    int
	rep  IngestReport
	buf  bytes.Buffer

	regSeries, extSeries Series // every day's files are parsed by these
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
		return nil, fmt.Errorf("delegation: reading archive dir: %w", err)
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
		return nil, fmt.Errorf("delegation: no %s delegation files in %s", rir.Token(), dir)
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
	snap.Regular, snap.RegularCorrupt = s.load(s.reg[d], &s.regSeries)
	snap.Extended, snap.ExtendedCorrupt = s.load(s.ext[d], &s.extSeries)
	return snap, true
}

// load parses one file through its series; corrupt reports a file that
// existed on disk but was unusable (open or read failure, or unusable
// content).
func (s *DirSource) load(name string, series *Series) (parsed *File, corrupt bool) {
	if name == "" {
		return nil, false
	}
	if s.read(name) == nil {
		parsed = series.Parse(s.buf.Bytes())
	}
	if parsed == nil {
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
