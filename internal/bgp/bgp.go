// Package bgp implements the subset of the BGP-4 wire protocol (RFC 4271,
// RFC 4760, RFC 6793) needed to produce and analyze routing data: UPDATE
// message encoding and decoding with 2- and 4-octet AS paths, IPv4 NLRI,
// and IPv6 reachability via MP_REACH_NLRI / MP_UNREACH_NLRI.
//
// In the style of gopacket's DecodingLayerParser, decoding fills a
// caller-owned Update value in place so that a scanner processing millions
// of MRT records performs no per-message allocations beyond slice growth
// on the reused buffers.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"parallellives/internal/asn"
)

// Message types (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Path attribute type codes.
const (
	AttrOrigin         = 1
	AttrASPath         = 2
	AttrNextHop        = 3
	AttrMED            = 4
	AttrLocalPref      = 5
	AttrAtomicAggr     = 6
	AttrAggregator     = 7
	AttrCommunities    = 8
	AttrMPReachNLRI    = 14
	AttrMPUnreachNLRI  = 15
	AttrAS4Path        = 17
	AttrAS4Aggregator  = 18
	AttrLargeCommunity = 32
)

// Origin attribute values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// AFI/SAFI values used by MP-BGP attributes.
const (
	AFIIPv4     = 1
	AFIIPv6     = 2
	SAFIUnicast = 1
)

// HeaderLen is the fixed BGP message header size.
const HeaderLen = 19

// MaxMessageLen is the largest legal BGP message (RFC 4271).
const MaxMessageLen = 4096

var (
	// ErrTruncated is returned when a message or attribute is shorter
	// than its declared length.
	ErrTruncated = errors.New("bgp: truncated message")
	// ErrMalformed is returned for structurally invalid data.
	ErrMalformed = errors.New("bgp: malformed message")
)

// Segment is one AS_PATH segment.
type Segment struct {
	Type byte // SegmentSet or SegmentSequence
	ASNs []asn.ASN
}

// Update is a decoded BGP UPDATE message. The slices are reused across
// Decode calls on the same value; callers must copy anything they retain.
type Update struct {
	Withdrawn []netip.Prefix
	Announced []netip.Prefix // IPv4 NLRI plus MP_REACH_NLRI prefixes
	Path      []Segment
	Origin    byte
	HasOrigin bool
	NextHop   netip.Addr

	// asns backs the ASNs of every decoded Path segment: decodeASPath
	// carves segments out of it instead of allocating one slice each, and
	// reset keeps its capacity, so a reused Update decodes paths without
	// allocating.
	asns []asn.ASN
}

// Reset clears the update for reuse without freeing slice capacity.
// DecodeUpdate and DecodeUpdateBody call it implicitly; callers feeding
// raw attribute blocks to DecodeAttrs must call it themselves.
func (u *Update) Reset() { u.reset() }

// reset clears the update for reuse without freeing capacity.
func (u *Update) reset() {
	u.Withdrawn = u.Withdrawn[:0]
	u.Announced = u.Announced[:0]
	u.Path = u.Path[:0]
	u.asns = u.asns[:0]
	u.Origin = 0
	u.HasOrigin = false
	u.NextHop = netip.Addr{}
}

// OriginAS returns the origin AS of the update — the last ASN of the last
// AS_SEQUENCE segment — and false if the path is empty or ends in an
// AS_SET (in which case the origin is ambiguous, per RFC 4271 aggregation
// semantics; the paper's pipeline skips those for origination analysis).
func (u *Update) OriginAS() (asn.ASN, bool) {
	if len(u.Path) == 0 {
		return 0, false
	}
	last := u.Path[len(u.Path)-1]
	if last.Type != SegmentSequence || len(last.ASNs) == 0 {
		return 0, false
	}
	return last.ASNs[len(last.ASNs)-1], true
}

// FirstAS returns the neighbor-most ASN on the path (the peer that sent
// the route to the collector) and false for an empty path.
func (u *Update) FirstAS() (asn.ASN, bool) {
	if len(u.Path) == 0 || len(u.Path[0].ASNs) == 0 {
		return 0, false
	}
	return u.Path[0].ASNs[0], true
}

// FlatPath appends all ASNs on the path, in order, to dst and returns it.
func (u *Update) FlatPath(dst []asn.ASN) []asn.ASN {
	for _, seg := range u.Path {
		dst = append(dst, seg.ASNs...)
	}
	return dst
}

// HasLoop reports whether any ASN appears in two non-adjacent positions
// of the flattened path. Legitimate prepending repeats an ASN in adjacent
// positions only; a non-adjacent repeat is a routing loop, which the
// paper's sanitization discards (§3.2).
func (u *Update) HasLoop() bool {
	var flat [64]asn.ASN
	path := u.FlatPath(flat[:0])
	for i := 0; i < len(path); i++ {
		for j := i + 1; j < len(path); j++ {
			if path[i] == path[j] && j != i+1 {
				// Allow runs of the same ASN (prepending): the repeat is
				// benign if every element between i and j equals path[i].
				run := true
				for k := i + 1; k < j; k++ {
					if path[k] != path[i] {
						run = false
						break
					}
				}
				if !run {
					return true
				}
			}
		}
	}
	return false
}

// appendPrefix encodes one NLRI prefix.
func appendPrefix(dst []byte, p netip.Prefix) []byte {
	bits := p.Bits()
	dst = append(dst, byte(bits))
	nbytes := (bits + 7) / 8
	a := p.Addr()
	if a.Is4() {
		b := a.As4()
		return append(dst, b[:nbytes]...)
	}
	b := a.As16()
	return append(dst, b[:nbytes]...)
}

// prefixLen is the number of bytes appendPrefix writes for p.
func prefixLen(p netip.Prefix) int { return 1 + (p.Bits()+7)/8 }

// decodePrefix reads one NLRI prefix for the given address family.
func decodePrefix(b []byte, v6 bool) (netip.Prefix, int, error) {
	if len(b) < 1 {
		return netip.Prefix{}, 0, ErrTruncated
	}
	bits := int(b[0])
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return netip.Prefix{}, 0, fmt.Errorf("%w: prefix length %d", ErrMalformed, bits)
	}
	nbytes := (bits + 7) / 8
	if len(b) < 1+nbytes {
		return netip.Prefix{}, 0, ErrTruncated
	}
	var addr netip.Addr
	if v6 {
		var a [16]byte
		copy(a[:], b[1:1+nbytes])
		addr = netip.AddrFrom16(a)
	} else {
		var a [4]byte
		copy(a[:], b[1:1+nbytes])
		addr = netip.AddrFrom4(a)
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, 0, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return p, 1 + nbytes, nil
}

// defaultNextHop6 is the MP_REACH_NLRI next hop used when the update has
// no IPv6 one of its own.
var defaultNextHop6 = netip.MustParseAddr("2001:db8::1")

// Marshal encodes the update as a full BGP message; see AppendMessage.
func (u *Update) Marshal(fourByte bool) ([]byte, error) { return u.AppendMessage(nil, fourByte) }

// AppendMessage appends the update to dst as a full BGP message (header
// included) and returns the extended slice; on error dst is returned
// unchanged. fourByte selects 4-octet AS number encoding in AS_PATH, as
// negotiated by the capability in real sessions and recorded by MRT
// subtypes. IPv6 prefixes in Announced are carried in an MP_REACH_NLRI
// attribute; IPv6 prefixes in Withdrawn in MP_UNREACH_NLRI.
func (u *Update) AppendMessage(dst []byte, fourByte bool) ([]byte, error) {
	start := len(dst)
	// Reachability splits by family: IPv4 rides in the classic fields,
	// IPv6 in the MP attributes. reach6/unreach6 are the attribute value
	// lengths, counted up front because the attribute header depends on
	// them; zero means no IPv6 prefix on that side.
	var announced4, reach6, unreach6 int
	for _, p := range u.Announced {
		if p.Addr().Is4() {
			announced4++
		} else {
			reach6 += prefixLen(p)
		}
	}
	for _, p := range u.Withdrawn {
		if !p.Addr().Is4() {
			unreach6 += prefixLen(p)
		}
	}
	announces := announced4 > 0 || reach6 > 0

	for i := 0; i < 16; i++ {
		dst = append(dst, 0xff)
	}
	dst = append(dst, 0, 0, TypeUpdate) // message length patched below

	wdAt := len(dst)
	dst = append(dst, 0, 0)
	for _, p := range u.Withdrawn {
		if p.Addr().Is4() {
			dst = appendPrefix(dst, p)
		}
	}
	wdLen := len(dst) - wdAt - 2

	attrsAt := len(dst)
	dst = append(dst, 0, 0)
	if u.HasOrigin || len(u.Path) > 0 || announces {
		dst = append(appendAttrHeader(dst, 0x40, AttrOrigin, 1), u.Origin)
	}
	if len(u.Path) > 0 || announces {
		dst = appendASPath(dst, u.Path, fourByte)
	}
	if announced4 > 0 {
		nh := u.NextHop
		if !nh.IsValid() || !nh.Is4() {
			nh = netip.AddrFrom4([4]byte{192, 0, 2, 1})
		}
		dst = appendNextHop(dst, nh)
	}
	if reach6 > 0 {
		dst = appendAttrHeader(dst, 0x80, AttrMPReachNLRI, 2+1+1+16+1+reach6)
		dst = binary.BigEndian.AppendUint16(dst, AFIIPv6)
		dst = append(dst, SAFIUnicast)
		nh := u.NextHop
		if !nh.IsValid() || !nh.Is6() || nh.Is4() {
			nh = defaultNextHop6
		}
		nh16 := nh.As16()
		dst = append(dst, 16)
		dst = append(dst, nh16[:]...)
		dst = append(dst, 0) // reserved / SNPA count
		for _, p := range u.Announced {
			if !p.Addr().Is4() {
				dst = appendPrefix(dst, p)
			}
		}
	}
	if unreach6 > 0 {
		dst = appendAttrHeader(dst, 0x80, AttrMPUnreachNLRI, 2+1+unreach6)
		dst = binary.BigEndian.AppendUint16(dst, AFIIPv6)
		dst = append(dst, SAFIUnicast)
		for _, p := range u.Withdrawn {
			if !p.Addr().Is4() {
				dst = appendPrefix(dst, p)
			}
		}
	}
	attrsLen := len(dst) - attrsAt - 2

	for _, p := range u.Announced {
		if p.Addr().Is4() {
			dst = appendPrefix(dst, p)
		}
	}

	// The section lengths are 16-bit fields; the message cap keeps every
	// one of them in range.
	total := len(dst) - start
	if total > MaxMessageLen {
		return dst[:start], fmt.Errorf("%w: message length %d exceeds %d", ErrMalformed, total, MaxMessageLen)
	}
	binary.BigEndian.PutUint16(dst[start+16:], uint16(total))
	binary.BigEndian.PutUint16(dst[wdAt:], uint16(wdLen))
	binary.BigEndian.PutUint16(dst[attrsAt:], uint16(attrsLen))
	return dst, nil
}

// AppendAttrs appends just the ORIGIN, AS_PATH and (for an IPv4 next
// hop) NEXT_HOP attributes of u to dst as a raw attribute block — the
// form MRT TABLE_DUMP_V2 RIB entries embed. RIB entries always use the
// 4-octet AS_PATH encoding, but the parameter is exposed for symmetric
// testing.
func (u *Update) AppendAttrs(dst []byte, fourByte bool) []byte {
	dst = append(appendAttrHeader(dst, 0x40, AttrOrigin, 1), u.Origin)
	dst = appendASPath(dst, u.Path, fourByte)
	if u.NextHop.IsValid() && u.NextHop.Is4() {
		dst = appendNextHop(dst, u.NextHop)
	}
	return dst
}

// appendAttrHeader encodes the header of one path attribute whose value
// is vlen bytes, using the extended-length form when it exceeds 255; the
// caller appends the value.
func appendAttrHeader(dst []byte, flags, typ byte, vlen int) []byte {
	if vlen > 255 {
		dst = append(dst, flags|0x10, typ) // extended length
		return binary.BigEndian.AppendUint16(dst, uint16(vlen))
	}
	return append(dst, flags, typ, byte(vlen))
}

func appendNextHop(dst []byte, nh netip.Addr) []byte {
	a := nh.As4()
	return append(appendAttrHeader(dst, 0x40, AttrNextHop, 4), a[:]...)
}

// maxSegmentASNs is the most ASNs one AS_PATH segment can carry: its
// count is a single byte.
const maxSegmentASNs = 255

// appendASPath encodes the AS_PATH attribute. A segment longer than
// maxSegmentASNs is written as consecutive segments of the same type, as
// RFC 4271 speakers do with heavily prepended paths.
func appendASPath(dst []byte, segs []Segment, fourByte bool) []byte {
	width := 2
	if fourByte {
		width = 4
	}
	vlen := 0
	for _, s := range segs {
		chunks := max(1, (len(s.ASNs)+maxSegmentASNs-1)/maxSegmentASNs)
		vlen += 2*chunks + width*len(s.ASNs)
	}
	dst = appendAttrHeader(dst, 0x40, AttrASPath, vlen)
	for _, s := range segs {
		asns := s.ASNs
		for first := true; first || len(asns) > 0; first = false {
			n := min(len(asns), maxSegmentASNs)
			dst = append(dst, s.Type, byte(n))
			for _, a := range asns[:n] {
				if fourByte {
					dst = binary.BigEndian.AppendUint32(dst, uint32(a))
				} else {
					if a.Is32Bit() {
						a = asn.ASTrans // RFC 6793 substitution
					}
					dst = binary.BigEndian.AppendUint16(dst, uint16(a))
				}
			}
			asns = asns[n:]
		}
	}
	return dst
}

// DecodeUpdate parses a full BGP message (with header) into u, resetting
// it first. It returns an error for non-UPDATE message types.
func DecodeUpdate(u *Update, msg []byte, fourByte bool) error {
	if len(msg) < HeaderLen {
		return ErrTruncated
	}
	l := int(binary.BigEndian.Uint16(msg[16:18]))
	if l < HeaderLen || l > len(msg) {
		return fmt.Errorf("%w: declared %d, have %d", ErrTruncated, l, len(msg))
	}
	if msg[18] != TypeUpdate {
		return fmt.Errorf("%w: message type %d is not UPDATE", ErrMalformed, msg[18])
	}
	return DecodeUpdateBody(u, msg[HeaderLen:l], fourByte)
}

// DecodeUpdateBody parses an UPDATE body (header stripped) into u.
func DecodeUpdateBody(u *Update, b []byte, fourByte bool) error {
	u.reset()
	if len(b) < 2 {
		return ErrTruncated
	}
	wlen := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	if len(b) < wlen {
		return ErrTruncated
	}
	wd := b[:wlen]
	b = b[wlen:]
	for len(wd) > 0 {
		p, n, err := decodePrefix(wd, false)
		if err != nil {
			return err
		}
		u.Withdrawn = append(u.Withdrawn, p)
		wd = wd[n:]
	}

	if len(b) < 2 {
		return ErrTruncated
	}
	alen := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	if len(b) < alen {
		return ErrTruncated
	}
	attrs := b[:alen]
	nlri := b[alen:]

	if err := DecodeAttrs(u, attrs, fourByte); err != nil {
		return err
	}

	for len(nlri) > 0 {
		p, n, err := decodePrefix(nlri, false)
		if err != nil {
			return err
		}
		u.Announced = append(u.Announced, p)
		nlri = nlri[n:]
	}
	return nil
}

// DecodeAttrs parses a raw path-attribute block into u without resetting
// it. It is used both for UPDATE bodies and for the attribute blocks
// embedded in MRT TABLE_DUMP_V2 RIB entries (which always use 4-octet AS
// numbers, so those callers pass fourByte=true).
func DecodeAttrs(u *Update, attrs []byte, fourByte bool) error {
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return ErrTruncated
		}
		flags, typ := attrs[0], attrs[1]
		var vlen, hlen int
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return ErrTruncated
			}
			vlen = int(binary.BigEndian.Uint16(attrs[2:4]))
			hlen = 4
		} else {
			vlen = int(attrs[2])
			hlen = 3
		}
		if len(attrs) < hlen+vlen {
			return ErrTruncated
		}
		val := attrs[hlen : hlen+vlen]
		attrs = attrs[hlen+vlen:]

		switch typ {
		case AttrOrigin:
			if vlen != 1 {
				return fmt.Errorf("%w: ORIGIN length %d", ErrMalformed, vlen)
			}
			u.Origin = val[0]
			u.HasOrigin = true
		case AttrASPath:
			if err := decodeASPath(u, val, fourByte); err != nil {
				return err
			}
		case AttrNextHop:
			if vlen == 4 {
				u.NextHop = netip.AddrFrom4([4]byte(val))
			}
		case AttrMPReachNLRI:
			if err := decodeMPReach(u, val); err != nil {
				return err
			}
		case AttrMPUnreachNLRI:
			if err := decodeMPUnreach(u, val); err != nil {
				return err
			}
		default:
			// Unrecognized attributes are skipped; the analysis pipeline
			// only consumes paths and prefixes.
		}
	}
	return nil
}

func decodeASPath(u *Update, b []byte, fourByte bool) error {
	width := 2
	if fourByte {
		width = 4
	}
	for len(b) > 0 {
		if len(b) < 2 {
			return ErrTruncated
		}
		segType, count := b[0], int(b[1])
		if segType != SegmentSet && segType != SegmentSequence {
			return fmt.Errorf("%w: AS_PATH segment type %d", ErrMalformed, segType)
		}
		need := 2 + count*width
		if len(b) < need {
			return ErrTruncated
		}
		start := len(u.asns)
		for off := 2; off < need; off += width {
			if fourByte {
				u.asns = append(u.asns, asn.ASN(binary.BigEndian.Uint32(b[off:])))
			} else {
				u.asns = append(u.asns, asn.ASN(binary.BigEndian.Uint16(b[off:])))
			}
		}
		// Capacity is clipped so appending to one segment cannot run into
		// the next. (If the backing slice grew mid-path, earlier segments
		// keep the old array, which still holds their values.)
		u.Path = append(u.Path, Segment{Type: segType, ASNs: u.asns[start:len(u.asns):len(u.asns)]})
		b = b[need:]
	}
	return nil
}

func decodeMPReach(u *Update, b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	afi := binary.BigEndian.Uint16(b[:2])
	safi := b[2]
	nhLen := int(b[3])
	if len(b) < 4+nhLen+1 {
		return ErrTruncated
	}
	if nhLen == 16 || nhLen == 32 { // global (+ link-local)
		u.NextHop = netip.AddrFrom16([16]byte(b[4:20]))
	}
	rest := b[4+nhLen+1:] // skip reserved byte
	if safi != SAFIUnicast {
		return nil
	}
	v6 := afi == AFIIPv6
	for len(rest) > 0 {
		p, n, err := decodePrefix(rest, v6)
		if err != nil {
			return err
		}
		u.Announced = append(u.Announced, p)
		rest = rest[n:]
	}
	return nil
}

func decodeMPUnreach(u *Update, b []byte) error {
	if len(b) < 3 {
		return ErrTruncated
	}
	afi := binary.BigEndian.Uint16(b[:2])
	safi := b[2]
	rest := b[3:]
	if safi != SAFIUnicast {
		return nil
	}
	v6 := afi == AFIIPv6
	for len(rest) > 0 {
		p, n, err := decodePrefix(rest, v6)
		if err != nil {
			return err
		}
		u.Withdrawn = append(u.Withdrawn, p)
		rest = rest[n:]
	}
	return nil
}
