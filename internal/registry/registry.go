// Package registry renders the simulated ground truth into the daily
// delegation files each RIR publishes — the regular format from its
// historical adoption date and the NRO extended format from the later
// per-RIR adoption dates (Table 1 of the paper) — and injects the §3.1
// error classes the restoration pipeline must survive: missing and
// corrupted files, record groups dropped from extended files, same-day
// regular/extended divergence, duplicate records with inconsistent
// status, registration dates that sit in the future, travel back to a
// placeholder, and inter-RIR overlaps from stale transfer data. It only
// renders: the archive reader and the Source contract restoration
// consumes live in delegation.
package registry

import (
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/worldsim"
)

// ARIN stopped publishing regular files on 2013-08-12 (§3.1 fn. 3).
var arinLastRegular = dates.MustParse("2013-08-12")

// Pinned by benchmark/README.md: the names the harness compiles against,
// kept as aliases of the archive reader in delegation; nothing else uses
// them.
type (
	Source   = delegation.Source
	Snapshot = delegation.Snapshot
	ERXEntry = delegation.ERXEntry
)

var (
	NewDirSource = delegation.NewDirSource
	FirstRegular = delegation.FirstRegular
)

// recordSpan is one resource record valid over a day range in one RIR's
// files. Block records (Count > 1) cover consecutive ASNs.
type recordSpan struct {
	From, To dates.Day
	Rec      delegation.Record
	ExtOnly  bool // only in extended files (reserved entries)
	RegOnly  bool // only in regular files (extended-drop corruption)
}

// Archive is the rendered delegation-file archive for one world.
type Archive struct {
	world *worldsim.World
	start dates.Day
	end   dates.Day

	// spans per RIR, sorted by From.
	spans [asn.NumRIRs][]recordSpan

	// missing[format][rir] marks days whose file is absent from the
	// archive; corrupt marks days whose file is present but mangled.
	missingReg   [asn.NumRIRs]map[dates.Day]bool
	missingExt   [asn.NumRIRs]map[dates.Day]bool
	corruptReg   [asn.NumRIRs]map[dates.Day]bool
	corruptExt   [asn.NumRIRs]map[dates.Day]bool
	dropEpisodes [asn.NumRIRs][]dropEpisode
	divergeDays  [asn.NumRIRs]map[dates.Day]bool
	erx          []delegation.ERXEntry
	injectStats  InjectionStats
}

// InjectionStats counts the corruption the archive carries, for tests and
// the restoration report to compare against.
type InjectionStats struct {
	MissingFileDays     int
	CorruptFileDays     int
	DroppedRecordDays   int // extended-file record-group drops
	DuplicateRecordASNs int
	FutureRegDateASNs   int
	PlaceholderASNs     int
	StaleTransferASNs   int
	MistakenAllocASNs   int
	RegDateCorrections  int
}

// InjectionStats reports what corruption was injected.
func (a *Archive) InjectionStats() InjectionStats { return a.injectStats }

// ERXReference returns the ERX original-registration reference table.
func (a *Archive) ERXReference() []delegation.ERXEntry {
	out := make([]delegation.ERXEntry, len(a.erx))
	copy(out, a.erx)
	return out
}

// Window returns the archive's day range (the world's window).
func (a *Archive) Window() (start, end dates.Day) { return a.start, a.end }

// FileStatus distinguishes absent, corrupt and present files.
type FileStatus uint8

// File statuses for a (registry, day, format) triple.
const (
	FileAbsent FileStatus = iota
	FileCorrupt
	FilePresent
)

// Status returns the archive's file status for the triple.
func (a *Archive) Status(r asn.RIR, d dates.Day, extended bool) FileStatus {
	if extended {
		if d < delegation.FirstExtended(r) || d > a.end {
			return FileAbsent
		}
		if a.missingExt[r][d] {
			return FileAbsent
		}
		if a.corruptExt[r][d] {
			return FileCorrupt
		}
		return FilePresent
	}
	if d < delegation.FirstRegular(r) || d > a.end || (r == asn.ARIN && d > arinLastRegular) {
		return FileAbsent
	}
	if a.missingReg[r][d] {
		return FileAbsent
	}
	if a.corruptReg[r][d] {
		return FileCorrupt
	}
	return FilePresent
}

// File materializes the delegation file for (registry, day, format), or
// nil if the archive has no parseable file there. Corrupt days return nil
// from File; CorruptBytes renders their mangled content.
func (a *Archive) File(r asn.RIR, d dates.Day, extended bool) *delegation.File {
	if a.Status(r, d, extended) != FilePresent {
		return nil
	}
	return a.buildFile(r, d, extended, nil)
}

// buildFile materializes the file for the triple inside caller-owned
// scratch (nil for a fresh file). The returned file aliases the scratch's
// backing arrays, so the caller must be done with the file before reusing
// the scratch — the contract the render→reparse text source relies on to
// build each day's transient file without fresh allocations.
func (a *Archive) buildFile(r asn.RIR, d dates.Day, extended bool, sc *fileScratch) *delegation.File {
	if sc == nil {
		sc = &fileScratch{}
	}
	f := &sc.file
	*f = delegation.File{
		Version:   "2",
		Registry:  r,
		Serial:    d.Compact(),
		End:       d,
		UTCOffset: "+0000",
		Extended:  extended,
		ASNs:      sc.recs[:0],
	}
	earliest := d
	for _, sp := range a.spans[r] {
		if d < sp.From || d > sp.To {
			continue
		}
		if sp.ExtOnly && !extended {
			continue
		}
		if sp.RegOnly && extended {
			continue
		}
		if extended && a.dropped(r, sp.Rec.ASN, d) {
			continue // §3.1(ii): record group vanished from extended file
		}
		if !extended && a.divergeDays[r][d] && sp.From == d {
			continue // §3.1(iii): regular file lags on brand-new records
		}
		rec := sp.Rec
		if !extended {
			if rec.Status == delegation.StatusReserved || rec.Status == delegation.StatusAvailable {
				continue // regular files list only delegated resources
			}
			rec.OpaqueID = ""
		}
		if rec.Date != dates.None && rec.Date < earliest {
			earliest = rec.Date
		}
		f.ASNs = append(f.ASNs, rec)
	}
	f.Start = earliest
	if extended {
		a.appendAvailable(f, sc, r, d)
	}
	sc.recs = f.ASNs[:0]
	f.Records = len(f.ASNs)
	f.Summaries = append(sc.summaries[:0], delegation.Summary{Registry: r, Type: "asn", Count: len(f.ASNs)})
	sc.summaries = f.Summaries[:0]
	return f
}

// fileScratch holds the reusable backing state for buildFile: the
// transient File value itself plus its record, summary and
// occupied-ASN slices. One scratch serves one goroutine's day loop.
type fileScratch struct {
	file      delegation.File
	recs      []delegation.Record
	summaries []delegation.Summary
	occupied  []asn.ASN
}

// appendAvailable adds aggregated available-pool block records, the
// extended format's "comprehensive picture" of unallocated resources.
func (a *Archive) appendAvailable(f *delegation.File, sc *fileScratch, r asn.RIR, d dates.Day) {
	// Collect the ASNs currently occupied (delegated or reserved).
	occupied := sc.occupied[:0]
	for _, rec := range f.ASNs {
		for i := 0; i < rec.Count; i++ {
			occupied = append(occupied, rec.ASN+asn.ASN(i))
		}
	}
	sort.Slice(occupied, func(i, j int) bool { return occupied[i] < occupied[j] })
	sc.occupied = occupied[:0]

	emit := func(lo, hi asn.ASN) {
		// Walk the pool range, emitting the gaps between occupied ASNs.
		i := sort.Search(len(occupied), func(i int) bool { return occupied[i] >= lo })
		cur := lo
		for ; i < len(occupied) && occupied[i] <= hi; i++ {
			if occupied[i] > cur {
				f.ASNs = append(f.ASNs, delegation.Record{
					Registry: r, ASN: cur, Count: int(occupied[i] - cur),
					Date: dates.None, Status: delegation.StatusAvailable,
				})
			}
			if occupied[i] >= cur {
				cur = occupied[i] + 1
			}
		}
		if cur <= hi {
			f.ASNs = append(f.ASNs, delegation.Record{
				Registry: r, ASN: cur, Count: int(hi-cur) + 1,
				Date: dates.None, Status: delegation.StatusAvailable,
			})
		}
	}
	lo16, hi16, base32, used32 := a.poolBounds(r)
	emit(lo16, hi16)
	if used32 > 0 {
		emit(base32, base32+asn.ASN(used32)-1)
	}
	f.Records = len(f.ASNs)
}

// poolBounds returns the registry's 16-bit range and the extent of its
// 32-bit range actually touched by the world.
func (a *Archive) poolBounds(r asn.RIR) (lo16, hi16, base32 asn.ASN, used32 int) {
	lo16, hi16, base32 = delegation.IANABlocks(r)
	maxUsed := asn.ASN(0)
	for _, l := range a.world.Lives {
		if l.RIR == r && l.ASN >= base32 && l.ASN > maxUsed {
			maxUsed = l.ASN
		}
	}
	if maxUsed > 0 {
		used32 = int(maxUsed-base32) + 64 // a little headroom, like IANA blocks
	}
	return lo16, hi16, base32, used32
}
