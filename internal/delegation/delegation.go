// Package delegation implements the RIR statistics-exchange ("delegation
// file") formats: the regular format the RIRs unified in 2004 and the NRO
// extended format they adopted between 2008 and 2013 (§2 of the paper).
//
// A file is a header line, summary lines, and one record per resource:
//
//	header:  version|registry|serial|records|startdate|enddate|UTCoffset
//	summary: registry|*|type|*|count|summary
//	regular: registry|cc|type|start|value|date|status
//	extended:registry|cc|type|start|value|date|status|opaque-id
//
// Records describe asn, ipv4 and ipv6 resources; this project analyzes
// ASNs, so asn records are parsed into typed Records while ipv4/ipv6 rows
// are preserved as opaque lines for faithful round-tripping.
//
// The package offers a strict parser (any malformed line is an error) and
// a lenient parser that collects per-line errors and keeps going — the
// mode the restoration pipeline uses, since real archives contain
// corrupted files (§3.1). It also reads archives of these files: the
// Source contract restoration consumes, DirSource over a directory in
// RIR FTP naming, and Series, which parses a registry's files day after
// day and reuses the previous day's record for every unchanged asn line.
package delegation

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
)

// Status is the delegation status of a resource.
type Status uint8

// Resource statuses. Regular files use only Allocated/Assigned; the
// extended format adds Available and Reserved.
const (
	StatusAvailable Status = iota
	StatusAllocated
	StatusAssigned
	StatusReserved
)

var statusNames = [...]string{"available", "allocated", "assigned", "reserved"}

// String returns the lower-case file token for the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Delegated reports whether the status represents a resource held by an
// organization (allocated or assigned), the paper's notion of an
// administrative life being open.
func (s Status) Delegated() bool { return s == StatusAllocated || s == StatusAssigned }

// Record is one asn resource line.
type Record struct {
	Registry asn.RIR
	CC       string  // ISO country code, empty for available/reserved
	ASN      asn.ASN // first ASN of the block
	Count    int     // block size (value column); 1 for single delegations
	Date     dates.Day
	Status   Status
	OpaqueID string // extended format only
}

// Line renders the record in the given format.
func (r Record) Line(extended bool) string {
	return string(r.AppendLine(nil, extended))
}

// AppendLine appends the record's file line (without trailing newline) to
// dst and returns the extended slice. This is the allocation-free form of
// Line the render loop uses: one day's file serializes into a single
// reused buffer.
func (r Record) AppendLine(dst []byte, extended bool) []byte {
	dst = append(dst, r.Registry.Token()...)
	dst = append(dst, '|')
	dst = append(dst, r.CC...)
	dst = append(dst, "|asn|"...)
	dst = strconv.AppendUint(dst, uint64(r.ASN), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	dst = append(dst, '|')
	// Available/reserved rows conventionally carry an empty date in some
	// registries' files; AppendCompact emits the zero placeholder for None.
	dst = r.Date.AppendCompact(dst)
	dst = append(dst, '|')
	dst = append(dst, r.Status.String()...)
	if extended {
		dst = append(dst, '|')
		dst = append(dst, r.OpaqueID...)
	}
	return dst
}

// Summary is one per-type summary line.
type Summary struct {
	Registry asn.RIR
	Type     string
	Count    int
}

// File is a parsed delegation file.
type File struct {
	Version   string
	Registry  asn.RIR
	Serial    string // conventionally the file date, YYYYMMDD
	Records   int    // record count declared in the header
	Start     dates.Day
	End       dates.Day
	UTCOffset string
	Extended  bool
	Summaries []Summary
	ASNs      []Record
	Other     []string // ipv4/ipv6 lines, preserved verbatim
}

// Clone returns a deep copy of f that shares no slice with it (the
// strings are immutable and shared); it returns nil for a nil f.
func (f *File) Clone() *File {
	if f == nil {
		return nil
	}
	c := *f
	c.Summaries, c.ASNs, c.Other = slices.Clone(f.Summaries), slices.Clone(f.ASNs), slices.Clone(f.Other)
	return &c
}

// LineError describes one malformed line encountered by ParseLenient.
type LineError struct {
	Line int
	Text string
	Err  error
}

func (e LineError) Error() string {
	return fmt.Sprintf("line %d: %v (%q)", e.Line, e.Err, e.Text)
}

// Parse reads a delegation file strictly: the first malformed line aborts
// with an error identifying it.
func Parse(r io.Reader) (*File, error) {
	f, errs := ParseLenient(r)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return f, nil
}

// ParseLenient reads a delegation file, collecting per-line errors rather
// than stopping. The returned file contains every line that parsed. A nil
// file is returned only when the header itself is unusable.
func ParseLenient(r io.Reader) (*File, []LineError) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, []LineError{{Line: 0, Err: err}}
	}
	return ParseLenientBytes(data)
}

// ParseLenientBytes is ParseLenient over an in-memory file, with a fresh
// Parser; callers parsing a day series hold a Series instead.
func ParseLenientBytes(data []byte) (*File, []LineError) {
	var p Parser
	return p.ParseLenient(data)
}

// Parser parses delegation files from bytes, interning the small repeated
// string fields (country codes, opaque org ids, header tokens) so that
// re-parsing a day series allocates per *distinct* string, not per record.
// The zero value is ready to use; a Parser must not be shared between
// goroutines. Parsed files never alias the input bytes — every retained
// string is a copy — so callers may reuse their input buffer immediately.
type Parser struct {
	intern map[string]string
	fields [][]byte
}

// str interns one field, allocating only the first time a value is seen.
func (p *Parser) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := p.intern[string(b)]; ok { // no-alloc map lookup
		return s
	}
	if p.intern == nil {
		p.intern = make(map[string]string, 64)
	}
	s := string(b)
	p.intern[s] = s
	return s
}

// split cuts line into '|'-separated fields in p's reused scratch.
func (p *Parser) split(line []byte) [][]byte {
	f := p.fields[:0]
	for {
		i := bytes.IndexByte(line, '|')
		if i < 0 {
			f = append(f, line)
			break
		}
		f = append(f, line[:i])
		line = line[i+1:]
	}
	p.fields = f
	return f
}

// ParseLenient parses one in-memory delegation file leniently into a
// fresh File; see ParseLenientInto.
func (p *Parser) ParseLenient(data []byte) (*File, []LineError) {
	return p.ParseLenientInto(new(File), data)
}

// ParseLenientInto parses one in-memory delegation file leniently into
// dst, collecting per-line errors rather than stopping; see the
// package-level ParseLenient. Every field of dst is reset first, its
// slices truncated with their capacity kept; Summaries and Other are
// left nil when the file has none, as a fresh parse leaves them. It
// returns dst, or nil when no header line parses.
func (p *Parser) ParseLenientInto(dst *File, data []byte) (*File, []LineError) {
	return p.parse(dst, data, nil)
}

// parse is ParseLenientInto, reusing what mem parsed if mem is not nil.
func (p *Parser) parse(dst *File, data []byte, mem *Series) (*File, []LineError) {
	*dst = File{Summaries: dst.Summaries[:0], ASNs: dst.ASNs[:0], Other: dst.Other[:0]}
	var errs []LineError
	header := false
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		for len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if !header {
			if err := p.parseHeader(dst, line); err != nil {
				errs = append(errs, LineError{Line: lineNo, Text: string(line), Err: err})
				continue
			}
			header = true
			dst.ASNs = slices.Grow(dst.ASNs, 1) // a parsed header yields a record slice
			continue
		}
		if mem != nil && mem.reuse(dst, line) {
			continue
		}
		n := len(dst.ASNs)
		if err := p.parseLine(dst, line); err != nil {
			errs = append(errs, LineError{Line: lineNo, Text: string(line), Err: err})
		} else if mem != nil {
			mem.note(dst, line, n)
		}
	}
	if !header {
		errs = append(errs, LineError{Line: 0, Err: fmt.Errorf("delegation: no header line")})
		return nil, errs
	}
	if len(dst.Summaries) == 0 {
		dst.Summaries = nil
	}
	if len(dst.Other) == 0 {
		dst.Other = nil
	}
	return dst, errs
}

// parseRIR maps a registry token field to an RIR without allocating.
func parseRIR(tok []byte) (asn.RIR, error) {
	for _, r := range asn.All() {
		if string(tok) == r.Token() {
			return r, nil
		}
	}
	return 0, fmt.Errorf("asn: unknown registry %q", tok)
}

// parseStatus maps a status token field to a Status without allocating.
func parseStatus(tok []byte) (Status, error) {
	for i, n := range statusNames {
		if string(tok) == n {
			return Status(i), nil
		}
	}
	return 0, fmt.Errorf("delegation: unknown status %q", tok)
}

// atoi parses a decimal field without allocating; it accepts exactly what
// strconv.Atoi accepts for the non-negative values delegation files carry.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// parseASN parses the start column as an unsigned 32-bit AS number,
// rejecting signs and overflow exactly as asn.Parse does.
func parseASN(b []byte) (asn.ASN, bool) {
	if len(b) == 0 || len(b) > 10 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if n > 0xffffffff {
		return 0, false
	}
	return asn.ASN(n), true
}

// parseHeader fills f's header fields from the header line.
func (p *Parser) parseHeader(f *File, line []byte) error {
	fields := p.split(line)
	if len(fields) != 7 {
		return fmt.Errorf("delegation: header has %d fields, want 7", len(fields))
	}
	rir, err := parseRIR(fields[1])
	if err != nil {
		return err
	}
	records, ok := atoi(fields[3])
	if !ok {
		return fmt.Errorf("delegation: bad record count %q", fields[3])
	}
	start, err := dates.ParseCompactBytes(fields[4])
	if err != nil {
		return fmt.Errorf("delegation: bad start date: %w", err)
	}
	end, err := dates.ParseCompactBytes(fields[5])
	if err != nil {
		return fmt.Errorf("delegation: bad end date: %w", err)
	}
	f.Version, f.Registry, f.Serial, f.Records = p.str(fields[0]), rir, p.str(fields[2]), records
	f.Start, f.End, f.UTCOffset = start, end, p.str(fields[6])
	return nil
}

func (p *Parser) parseLine(f *File, line []byte) error {
	fields := p.split(line)
	if len(fields) >= 6 && string(fields[1]) == "*" && string(fields[3]) == "*" {
		// Summary line: registry|*|type|*|count|summary
		count, ok := atoi(fields[4])
		if !ok {
			return fmt.Errorf("delegation: bad summary count %q", fields[4])
		}
		rir, err := parseRIR(fields[0])
		if err != nil {
			return err
		}
		f.Summaries = append(f.Summaries, Summary{Registry: rir, Type: p.str(fields[2]), Count: count})
		return nil
	}
	if len(fields) < 7 {
		return fmt.Errorf("delegation: record has %d fields, want >= 7", len(fields))
	}
	typ := fields[2]
	if string(typ) != "asn" {
		if string(typ) != "ipv4" && string(typ) != "ipv6" {
			return fmt.Errorf("delegation: unknown resource type %q", typ)
		}
		f.Other = append(f.Other, string(line))
		return nil
	}
	rir, err := parseRIR(fields[0])
	if err != nil {
		return err
	}
	av, ok := parseASN(fields[3])
	if !ok {
		return fmt.Errorf("asn: invalid ASN %q", fields[3])
	}
	count, ok := atoi(fields[4])
	if !ok || count < 1 {
		return fmt.Errorf("delegation: bad value column %q", fields[4])
	}
	var date dates.Day
	if len(fields[5]) == 0 {
		date = dates.None
	} else if date, err = dates.ParseCompactBytes(fields[5]); err != nil {
		return err
	}
	status, err := parseStatus(fields[6])
	if err != nil {
		return err
	}
	rec := Record{
		Registry: rir,
		CC:       p.str(fields[1]),
		ASN:      asn.ASN(av),
		Count:    count,
		Date:     date,
		Status:   status,
	}
	if len(fields) >= 8 {
		rec.OpaqueID = p.str(fields[7])
		f.Extended = true
	}
	f.ASNs = append(f.ASNs, rec)
	return nil
}

// WriteTo serializes the file. Records are emitted in ascending ASN order
// for determinism; the header record count is recomputed from contents.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	var rd Renderer
	n, err := w.Write(rd.Render(f))
	return int64(n), err
}

// Renderer serializes files into a reused buffer. The render→reparse
// round trip serializes every file-day of a registry; holding one
// Renderer makes that loop allocation-free after warm-up. The zero value
// is ready to use; a Renderer must not be shared between goroutines.
type Renderer struct {
	buf  []byte
	recs []Record
}

// Render returns f in its textual delegation-file form. The returned
// slice is the Renderer's internal buffer: it is valid only until the
// next Render call and must not be retained or mutated.
func (rd *Renderer) Render(f *File) []byte {
	rd.recs = append(rd.recs[:0], f.ASNs...)
	recs := rd.recs
	sort.Slice(recs, func(i, j int) bool { return recs[i].ASN < recs[j].ASN })

	b := rd.buf[:0]
	// header: version|registry|serial|records|startdate|enddate|UTCoffset
	b = append(b, f.Version...)
	b = append(b, '|')
	b = append(b, f.Registry.Token()...)
	b = append(b, '|')
	b = append(b, f.Serial...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(recs)+len(f.Other)), 10)
	b = append(b, '|')
	b = f.Start.AppendCompact(b)
	b = append(b, '|')
	b = f.End.AppendCompact(b)
	b = append(b, '|')
	b = append(b, f.UTCOffset...)
	b = append(b, '\n')
	appendSummary := func(b []byte, r asn.RIR, typ string, count int) []byte {
		b = append(b, r.Token()...)
		b = append(b, "|*|"...)
		b = append(b, typ...)
		b = append(b, "|*|"...)
		b = strconv.AppendInt(b, int64(count), 10)
		b = append(b, "|summary\n"...)
		return b
	}
	if len(f.Summaries) == 0 {
		// Synthesize the asn summary when the caller did not provide one.
		b = appendSummary(b, f.Registry, "asn", len(recs))
	}
	for _, s := range f.Summaries {
		b = appendSummary(b, s.Registry, s.Type, s.Count)
	}
	for _, r := range recs {
		b = r.AppendLine(b, f.Extended)
		b = append(b, '\n')
	}
	for _, line := range f.Other {
		b = append(b, line...)
		b = append(b, '\n')
	}
	rd.buf = b
	return b
}

// Expand returns one Record per individual ASN, splitting block records
// (Count > 1, as APNIC emits for NIR block delegations) into unit records
// sharing date, status and opaque id.
func (f *File) Expand() []Record {
	out := make([]Record, 0, len(f.ASNs))
	for _, r := range f.ASNs {
		for i := 0; i < r.Count; i++ {
			unit := r
			unit.ASN = r.ASN + asn.ASN(i)
			unit.Count = 1
			out = append(out, unit)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}
