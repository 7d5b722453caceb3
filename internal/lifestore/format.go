package lifestore

import (
	"encoding/binary"
	"fmt"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/faults"
	"parallellives/internal/intervals"
)

// FormatVersion is the snapshot format this package writes. Readers
// reject files with a different version: the format is small enough that
// cross-version migration is "rebuild the snapshot", not in-place compat.
const FormatVersion = 1

// magic opens every snapshot file.
const magic = "ASNLIVES"

// Section identifiers. A valid file contains each required section
// exactly once; readers ignore sections with unknown identifiers, which
// is the forward-compatibility room for additive extensions.
const (
	secMeta     uint16 = 1
	secHealth   uint16 = 2
	secTaxonomy uint16 = 3
	secSeries   uint16 = 4
	secIndex    uint16 = 5
	secBlocks   uint16 = 6
	// secShard is the optional shard-identity section a SaveSharded file
	// carries. Readers predating it skip unknown sections, so a shard
	// file is still a valid snapshot to an old reader — it simply serves
	// a contiguous subset of the ASNs.
	secShard uint16 = 7
)

const (
	headerFixedLen  = 12 // magic(8) + version(2) + section count(2)
	sectionEntryLen = 24 // id(2) + reserved(2) + offset(8) + length(8) + crc(4)
)

// indexEntry locates one ASN's block inside the blocks section.
type indexEntry struct {
	asn    asn.ASN
	off    uint64 // relative to the blocks section start
	length uint64 // block payload + trailing CRC
}

func encodeMeta(m Meta) []byte {
	var e enc
	e.day(m.Start)
	e.day(m.End)
	e.count(m.Timeout)
	e.count(m.Visibility)
	e.byte(uint8(m.Policy))
	e.bool(m.Wire)
	e.bool(true) // the retired text-files flag: delegation data always takes the text round trip
	e.float(m.Scale)
	e.varint(m.Seed)
	e.count(m.Collectors)
	e.count(m.PeersPerCollector)
	e.bool(m.Chaos)
	e.count(m.ASNCount)
	e.count(m.AdminLives)
	e.count(m.OpLives)
	return e.b
}

func decodeMeta(b []byte) (Meta, error) {
	d := dec{b: b}
	m := Meta{FormatVersion: FormatVersion}
	m.Start = d.day()
	m.End = d.day()
	m.Timeout = int(d.uvarint())
	m.Visibility = int(d.uvarint())
	m.Policy = faults.FaultPolicy(d.byte())
	m.Wire = d.bool()
	d.bool() // the retired text-files flag, dropped
	m.Scale = d.float()
	m.Seed = d.varint()
	m.Collectors = int(d.uvarint())
	m.PeersPerCollector = int(d.uvarint())
	m.Chaos = d.bool()
	m.ASNCount = int(d.uvarint())
	m.AdminLives = int(d.uvarint())
	m.OpLives = int(d.uvarint())
	return m, d.done()
}

func encodeHealth(h faults.Health) []byte {
	var e enc
	e.byte(uint8(h.Policy))
	e.count(h.DaysProcessed)
	e.varint(h.MRT.Archives)
	e.varint(h.MRT.Records)
	e.varint(h.MRT.QuarantinedTruncated)
	e.varint(h.MRT.QuarantinedTails)
	e.varint(h.MRT.Malformed)
	e.count(h.Delegation.FilesScanned)
	e.count(h.Delegation.MissingFileDays)
	e.count(h.Delegation.CorruptFileDays)
	e.varint(h.Delegation.Retries)
	e.varint(h.Delegation.AbandonedReads)
	e.varint(int64(h.Delegation.RetryBackoff))
	for _, c := range h.Coverage {
		e.count(c.Days)
		e.count(c.FileDays)
		e.count(c.MissingDays)
		e.count(c.CorruptDays)
	}
	e.bool(h.Injected != nil)
	if h.Injected != nil {
		i := h.Injected
		e.varint(i.TruncatedRecords)
		e.varint(i.TailChops)
		e.varint(i.CorruptDays)
		e.varint(i.DroppedDays)
		e.varint(i.TransientErrs)
		e.varint(i.ShortReads)
		e.varint(i.Stalls)
	}
	return e.b
}

func decodeHealth(b []byte) (faults.Health, error) {
	d := dec{b: b}
	var h faults.Health
	h.Policy = faults.FaultPolicy(d.byte())
	h.DaysProcessed = int(d.uvarint())
	h.MRT.Archives = d.varint()
	h.MRT.Records = d.varint()
	h.MRT.QuarantinedTruncated = d.varint()
	h.MRT.QuarantinedTails = d.varint()
	h.MRT.Malformed = d.varint()
	h.Delegation.FilesScanned = int(d.uvarint())
	h.Delegation.MissingFileDays = int(d.uvarint())
	h.Delegation.CorruptFileDays = int(d.uvarint())
	h.Delegation.Retries = d.varint()
	h.Delegation.AbandonedReads = d.varint()
	h.Delegation.RetryBackoff = time.Duration(d.varint())
	for r := range h.Coverage {
		h.Coverage[r].Days = int(d.uvarint())
		h.Coverage[r].FileDays = int(d.uvarint())
		h.Coverage[r].MissingDays = int(d.uvarint())
		h.Coverage[r].CorruptDays = int(d.uvarint())
	}
	if d.bool() {
		var rep faults.Report
		rep.TruncatedRecords = d.varint()
		rep.TailChops = d.varint()
		rep.CorruptDays = d.varint()
		rep.DroppedDays = d.varint()
		rep.TransientErrs = d.varint()
		rep.ShortReads = d.varint()
		rep.Stalls = d.varint()
		h.Injected = &rep
	}
	return h, d.done()
}

func encodeTaxonomy(t core.TaxonomyCounts) []byte {
	var e enc
	e.count(t.AdminComplete)
	e.count(t.AdminPartial)
	e.count(t.AdminUnused)
	e.count(t.OpComplete)
	e.count(t.OpPartial)
	e.count(t.OpOutside)
	return e.b
}

func decodeTaxonomy(b []byte) (core.TaxonomyCounts, error) {
	d := dec{b: b}
	t := core.TaxonomyCounts{
		AdminComplete: int(d.uvarint()),
		AdminPartial:  int(d.uvarint()),
		AdminUnused:   int(d.uvarint()),
		OpComplete:    int(d.uvarint()),
		OpPartial:     int(d.uvarint()),
		OpOutside:     int(d.uvarint()),
	}
	return t, d.done()
}

func encodeSeries(s *core.AliveSeries) []byte {
	var e enc
	e.bool(s != nil)
	if s == nil {
		return e.b
	}
	e.day(s.Start)
	e.day(s.End)
	for _, r := range asn.All() {
		e.ints(s.AdminPerRIR[r])
	}
	e.ints(s.AdminOverall)
	for _, r := range asn.All() {
		e.ints(s.OpPerRIR[r])
	}
	e.ints(s.OpOverall)
	return e.b
}

func decodeSeries(b []byte) (*core.AliveSeries, error) {
	d := dec{b: b}
	if !d.bool() {
		return nil, d.done()
	}
	s := &core.AliveSeries{Start: d.day(), End: d.day()}
	for _, r := range asn.All() {
		s.AdminPerRIR[r] = d.ints()
	}
	s.AdminOverall = d.ints()
	for _, r := range asn.All() {
		s.OpPerRIR[r] = d.ints()
	}
	s.OpOverall = d.ints()
	return s, d.done()
}

func encodeShard(si ShardInfo) []byte {
	var e enc
	e.count(si.Index)
	e.count(si.Count)
	e.uvarint(uint64(si.Lo))
	e.uvarint(uint64(si.Hi))
	e.uvarint(uint64(si.Sum))
	return e.b
}

func decodeShard(b []byte) (ShardInfo, error) {
	d := dec{b: b}
	si := ShardInfo{
		Index: int(d.uvarint()),
		Count: int(d.uvarint()),
		Lo:    asn.ASN(d.uvarint()),
		Hi:    asn.ASN(d.uvarint()),
		Sum:   uint32(d.uvarint()),
	}
	if err := d.done(); err != nil {
		return ShardInfo{}, err
	}
	if si.Count < 1 || si.Index < 0 || si.Index >= si.Count || si.Lo > si.Hi {
		return ShardInfo{}, corruptf("implausible shard identity %d/%d [AS%s..AS%s]", si.Index, si.Count, si.Lo, si.Hi)
	}
	return si, nil
}

const (
	flagOpen        = 1 << 0
	flagTransferred = 1 << 1
)

// encodeBlock renders one ASN's lives as payload + trailing CRC-32C, the
// unit a lazy lookup reads and verifies independently of the rest of the
// file.
func encodeBlock(l ASNLives) []byte {
	var e enc
	e.uvarint(uint64(l.ASN))
	e.count(len(l.Admin))
	for _, al := range l.Admin {
		e.byte(uint8(al.RIR))
		e.string(al.CC)
		e.string(al.OpaqueID)
		e.day(al.RegDate)
		e.day(al.Span.Start)
		e.uvarint(uint64(al.Span.End.Sub(al.Span.Start)))
		var flags uint8
		if al.Open {
			flags |= flagOpen
		}
		if al.Transferred {
			flags |= flagTransferred
		}
		e.byte(flags)
		e.count(al.Pieces)
		e.byte(al.Category.Code())
	}
	e.count(len(l.Op))
	for _, ol := range l.Op {
		e.day(ol.Span.Start)
		e.uvarint(uint64(ol.Span.End.Sub(ol.Span.Start)))
		e.byte(ol.Category.Code())
	}
	return binary.LittleEndian.AppendUint32(e.b, checksum(e.b))
}

func decodeBlock(b []byte) (ASNLives, error) {
	if len(b) < 4 {
		return ASNLives{}, corruptf("block shorter than its checksum")
	}
	payload, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := checksum(payload), binary.LittleEndian.Uint32(tail); got != want {
		return ASNLives{}, corruptf("block checksum mismatch (got %08x, want %08x)", got, want)
	}
	d := dec{b: payload}
	var l ASNLives
	l.ASN = asn.ASN(d.uvarint())
	if n := d.count(); d.err == nil && n > 0 {
		l.Admin = make([]AdminLife, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			al := AdminLife{
				RIR:      asn.RIR(d.byte()),
				CC:       d.string(),
				OpaqueID: d.string(),
				RegDate:  d.day(),
			}
			start := d.day()
			al.Span = intervals.Interval{Start: start, End: start.AddDays(int(d.uvarint()))}
			flags := d.byte()
			al.Open = flags&flagOpen != 0
			al.Transferred = flags&flagTransferred != 0
			al.Pieces = int(d.uvarint())
			if al.Category, d.err = categoryOrErr(d.byte(), d.err); d.err != nil {
				break
			}
			l.Admin = append(l.Admin, al)
		}
	}
	if n := d.count(); d.err == nil && n > 0 {
		l.Op = make([]OpLife, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			var ol OpLife
			start := d.day()
			ol.Span = intervals.Interval{Start: start, End: start.AddDays(int(d.uvarint()))}
			if ol.Category, d.err = categoryOrErr(d.byte(), d.err); d.err != nil {
				break
			}
			l.Op = append(l.Op, ol)
		}
	}
	if err := d.done(); err != nil {
		return ASNLives{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return l, nil
}

// categoryOrErr decodes a category code without clobbering an earlier
// decoder error.
func categoryOrErr(code uint8, prev error) (core.Category, error) {
	if prev != nil {
		return 0, prev
	}
	return core.CategoryFromCode(code)
}

func encodeIndex(entries []indexEntry) []byte {
	var e enc
	e.count(len(entries))
	prev := uint64(0)
	for _, ent := range entries {
		e.uvarint(uint64(ent.asn) - prev)
		prev = uint64(ent.asn)
		e.uvarint(ent.off)
		e.uvarint(ent.length)
	}
	return e.b
}

func decodeIndex(b []byte) ([]indexEntry, error) {
	d := dec{b: b}
	n := d.count()
	var entries []indexEntry
	if d.err == nil && n > 0 {
		entries = make([]indexEntry, 0, n)
		prev := uint64(0)
		for i := 0; i < n && d.err == nil; i++ {
			prev += d.uvarint()
			entries = append(entries, indexEntry{
				asn:    asn.ASN(prev),
				off:    d.uvarint(),
				length: d.uvarint(),
			})
		}
	}
	return entries, d.done()
}
