// Package mrt implements the MRT routing-information export format
// (RFC 6396) used by the RouteViews and RIPE RIS archives: the common
// record framing, TABLE_DUMP_V2 RIB dumps (PEER_INDEX_TABLE and
// RIB_IPV4/IPV6_UNICAST records), and BGP4MP update messages with 2- and
// 4-octet AS numbers.
//
// The Reader follows the guide's preallocated-decoding idiom: Next
// returns the record body in an internal buffer that is reused across
// calls, so streaming a multi-gigabyte archive performs a bounded number
// of allocations.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
)

// Type is an MRT record type.
type Type uint16

// MRT record types used by BGP archives.
const (
	TypeTableDumpV2 Type = 13
	TypeBGP4MP      Type = 16
	TypeBGP4MPET    Type = 17
)

// TABLE_DUMP_V2 subtypes.
const (
	SubtypePeerIndexTable uint16 = 1
	SubtypeRIBIPv4Unicast uint16 = 2
	SubtypeRIBIPv6Unicast uint16 = 4
)

// BGP4MP subtypes.
const (
	SubtypeBGP4MPStateChange uint16 = 0
	SubtypeBGP4MPMessage     uint16 = 1
	SubtypeBGP4MPMessageAS4  uint16 = 4
)

const headerLen = 12

// ErrTruncated reports a record body shorter than its framing declares.
var ErrTruncated = errors.New("mrt: truncated record")

// ErrMalformed reports structurally invalid record contents.
var ErrMalformed = errors.New("mrt: malformed record")

// Header is the common MRT record header.
type Header struct {
	Timestamp uint32 // seconds since the Unix epoch
	Type      Type
	Subtype   uint16
	Length    uint32 // body length in bytes
}

// Reader streams MRT records from an io.Reader.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader wraps r in an MRT record reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// maxRecordLen bounds a single record body; real archives stay far below
// this, and the cap prevents a corrupted length field from ballooning the
// reusable buffer.
const maxRecordLen = 1 << 24

// Next returns the next record's header and body. The body slice aliases
// an internal buffer that is overwritten by the following Next call; it
// returns io.EOF cleanly at end of stream.
func (r *Reader) Next() (Header, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Header{}, nil, ErrTruncated
		}
		return Header{}, nil, err
	}
	h, err := parseHeader(hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	if cap(r.buf) < int(h.Length) {
		r.buf = make([]byte, h.Length)
	}
	body := r.buf[:h.Length]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return Header{}, nil, ErrTruncated
	}
	return h, body, nil
}

// parseHeader decodes the common header at the head of hdr (at least
// headerLen bytes) and refuses a body length beyond maxRecordLen.
func parseHeader(hdr []byte) (Header, error) {
	h := Header{
		Timestamp: binary.BigEndian.Uint32(hdr[0:4]),
		Type:      Type(binary.BigEndian.Uint16(hdr[4:6])),
		Subtype:   binary.BigEndian.Uint16(hdr[6:8]),
		Length:    binary.BigEndian.Uint32(hdr[8:12]),
	}
	if h.Length > maxRecordLen {
		return Header{}, fmt.Errorf("%w: record length %d", ErrMalformed, h.Length)
	}
	return h, nil
}

// NextRecord frames the record at the head of data, an archive already in
// memory: it returns the header, the body and the bytes after the record,
// both aliasing data — no buffer, no copy. It agrees with Reader.Next on
// every input: io.EOF when data is empty, ErrTruncated when the header or
// the body is cut short, ErrMalformed for a length beyond maxRecordLen.
func NextRecord(data []byte) (h Header, body, rest []byte, err error) {
	if len(data) == 0 {
		return Header{}, nil, nil, io.EOF
	}
	if len(data) < headerLen {
		return Header{}, nil, nil, ErrTruncated
	}
	if h, err = parseHeader(data); err != nil {
		return Header{}, nil, nil, err
	}
	end := headerLen + int(h.Length)
	if len(data) < end {
		return Header{}, nil, nil, ErrTruncated
	}
	return h, data[headerLen:end:end], data[end:], nil
}

// Writer emits MRT records to an io.Writer.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w in an MRT record writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteRecord frames body with the MRT header and writes it.
func (w *Writer) WriteRecord(ts uint32, typ Type, subtype uint16, body []byte) error {
	w.buf = append(BeginRecord(w.buf[:0], ts, typ, subtype), body...)
	EndRecord(w.buf, 0)
	_, err := w.w.Write(w.buf)
	return err
}

// BeginRecord appends an MRT record header with a zero length to dst.
// The caller appends the body in place and then calls EndRecord with the
// offset the header was written at (len(dst) before this call), so a
// record is framed without its body ever existing as a separate slice.
func BeginRecord(dst []byte, ts uint32, typ Type, subtype uint16) []byte {
	dst = binary.BigEndian.AppendUint32(dst, ts)
	dst = binary.BigEndian.AppendUint16(dst, uint16(typ))
	dst = binary.BigEndian.AppendUint16(dst, subtype)
	return append(dst, 0, 0, 0, 0)
}

// EndRecord back-patches the length of the record whose header
// BeginRecord wrote at dst[at:]: everything after the header is its body.
func EndRecord(dst []byte, at int) {
	binary.BigEndian.PutUint32(dst[at+8:], uint32(len(dst)-at-headerLen))
}

// Peer is one collector peer in a PEER_INDEX_TABLE.
type Peer struct {
	BGPID [4]byte
	Addr  netip.Addr
	AS    asn.ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 PEER_INDEX_TABLE record that
// prefixes every RIB dump and maps peer indexes to peer identities.
type PeerIndexTable struct {
	CollectorID [4]byte
	ViewName    string
	Peers       []Peer
}

// Marshal encodes the peer index table body.
func (t *PeerIndexTable) Marshal() []byte { return t.AppendTo(nil) }

// AppendTo appends the peer index table body to dst.
func (t *PeerIndexTable) AppendTo(dst []byte) []byte {
	dst = append(dst, t.CollectorID[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.ViewName)))
	dst = append(dst, t.ViewName...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		var ptype byte
		if p.Addr.Is6() && !p.Addr.Is4In6() {
			ptype |= 0x01
		}
		ptype |= 0x02 // always record 4-byte AS, like modern collectors
		dst = append(dst, ptype)
		dst = append(dst, p.BGPID[:]...)
		if ptype&0x01 != 0 {
			a := p.Addr.As16()
			dst = append(dst, a[:]...)
		} else {
			a := p.Addr.As4()
			dst = append(dst, a[:]...)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(p.AS))
	}
	return dst
}

// DecodePeerIndexTable parses a PEER_INDEX_TABLE body into t.
func DecodePeerIndexTable(t *PeerIndexTable, b []byte) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	copy(t.CollectorID[:], b[:4])
	nameLen := int(binary.BigEndian.Uint16(b[4:6]))
	b = b[6:]
	if len(b) < nameLen+2 {
		return ErrTruncated
	}
	t.ViewName = string(b[:nameLen])
	count := int(binary.BigEndian.Uint16(b[nameLen : nameLen+2]))
	b = b[nameLen+2:]
	t.Peers = t.Peers[:0]
	for i := 0; i < count; i++ {
		if len(b) < 1 {
			return ErrTruncated
		}
		ptype := b[0]
		b = b[1:]
		var p Peer
		if len(b) < 4 {
			return ErrTruncated
		}
		copy(p.BGPID[:], b[:4])
		b = b[4:]
		if ptype&0x01 != 0 {
			if len(b) < 16 {
				return ErrTruncated
			}
			p.Addr = netip.AddrFrom16([16]byte(b[:16]))
			b = b[16:]
		} else {
			if len(b) < 4 {
				return ErrTruncated
			}
			p.Addr = netip.AddrFrom4([4]byte(b[:4]))
			b = b[4:]
		}
		if ptype&0x02 != 0 {
			if len(b) < 4 {
				return ErrTruncated
			}
			p.AS = asn.ASN(binary.BigEndian.Uint32(b[:4]))
			b = b[4:]
		} else {
			if len(b) < 2 {
				return ErrTruncated
			}
			p.AS = asn.ASN(binary.BigEndian.Uint16(b[:2]))
			b = b[2:]
		}
		t.Peers = append(t.Peers, p)
	}
	return nil
}

// RIBEntry is one peer's view of a prefix in a RIB record. Attrs is the
// raw BGP path-attribute block (4-octet AS encoding per RFC 6396 §4.3.4).
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime uint32
	Attrs          []byte
}

// RIBRecord is a TABLE_DUMP_V2 RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record:
// one prefix with the set of peers announcing it.
type RIBRecord struct {
	Seq     uint32
	Prefix  netip.Prefix
	Entries []RIBEntry
}

// Subtype returns the TABLE_DUMP_V2 subtype matching the record's
// address family.
func (r *RIBRecord) Subtype() uint16 {
	if r.Prefix.Addr().Is6() && !r.Prefix.Addr().Is4In6() {
		return SubtypeRIBIPv6Unicast
	}
	return SubtypeRIBIPv4Unicast
}

// Marshal encodes the RIB record body; see AppendTo.
func (r *RIBRecord) Marshal() ([]byte, error) { return r.AppendTo(nil) }

// AppendTo appends the RIB record body to dst and returns the extended
// slice. The entry count and each attribute block's length are 16-bit
// fields: a record that does not fit them is refused with ErrMalformed
// (and dst returned unchanged) rather than written with counts that
// disagree with its bytes.
func (r *RIBRecord) AppendTo(dst []byte) ([]byte, error) {
	start := len(dst)
	if len(r.Entries) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: %d RIB entries exceed the 16-bit count", ErrMalformed, len(r.Entries))
	}
	dst = binary.BigEndian.AppendUint32(dst, r.Seq)
	bits := r.Prefix.Bits()
	dst = append(dst, byte(bits))
	if a := r.Prefix.Addr(); a.Is4() {
		b := a.As4()
		dst = append(dst, b[:(bits+7)/8]...)
	} else {
		b := a.As16()
		dst = append(dst, b[:(bits+7)/8]...)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		if len(e.Attrs) > math.MaxUint16 {
			return dst[:start], fmt.Errorf("%w: %d attribute bytes exceed the 16-bit length", ErrMalformed, len(e.Attrs))
		}
		dst = binary.BigEndian.AppendUint16(dst, e.PeerIndex)
		dst = binary.BigEndian.AppendUint32(dst, e.OriginatedTime)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Attrs)))
		dst = append(dst, e.Attrs...)
	}
	return dst, nil
}

// DecodeRIBRecord parses a RIB record body into r. v6 selects the address
// family, which the caller knows from the record subtype. Entry Attrs
// alias b.
func DecodeRIBRecord(r *RIBRecord, b []byte, v6 bool) error {
	if len(b) < 5 {
		return ErrTruncated
	}
	r.Seq = binary.BigEndian.Uint32(b[:4])
	bits := int(b[4])
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return fmt.Errorf("%w: prefix length %d", ErrMalformed, bits)
	}
	nbytes := (bits + 7) / 8
	b = b[5:]
	if len(b) < nbytes+2 {
		return ErrTruncated
	}
	var addr netip.Addr
	if v6 {
		var a [16]byte
		copy(a[:], b[:nbytes])
		addr = netip.AddrFrom16(a)
	} else {
		var a [4]byte
		copy(a[:], b[:nbytes])
		addr = netip.AddrFrom4(a)
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	r.Prefix = p
	count := int(binary.BigEndian.Uint16(b[nbytes : nbytes+2]))
	b = b[nbytes+2:]
	r.Entries = r.Entries[:0]
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return ErrTruncated
		}
		e := RIBEntry{
			PeerIndex:      binary.BigEndian.Uint16(b[:2]),
			OriginatedTime: binary.BigEndian.Uint32(b[2:6]),
		}
		alen := int(binary.BigEndian.Uint16(b[6:8]))
		b = b[8:]
		if len(b) < alen {
			return ErrTruncated
		}
		e.Attrs = b[:alen]
		b = b[alen:]
		r.Entries = append(r.Entries, e)
	}
	return nil
}

// BGP4MPMessage is a BGP4MP MESSAGE or MESSAGE_AS4 record: one BGP
// message exchanged between a collector and a peer.
type BGP4MPMessage struct {
	PeerAS, LocalAS asn.ASN
	IfIndex         uint16
	PeerIP, LocalIP netip.Addr
	Data            []byte // full BGP message, header included
	FourByte        bool   // true for the MESSAGE_AS4 subtype
}

// Subtype returns the BGP4MP subtype for the message's AS-number width.
func (m *BGP4MPMessage) Subtype() uint16 {
	if m.FourByte {
		return SubtypeBGP4MPMessageAS4
	}
	return SubtypeBGP4MPMessage
}

// Marshal encodes the BGP4MP message body; see AppendTo.
func (m *BGP4MPMessage) Marshal() ([]byte, error) { return m.AppendTo(nil) }

// AppendTo appends the BGP4MP message body to dst and returns the
// extended slice; on error dst is returned unchanged.
func (m *BGP4MPMessage) AppendTo(dst []byte) ([]byte, error) {
	if m.FourByte {
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.PeerAS))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.LocalAS))
	} else {
		if m.PeerAS.Is32Bit() || m.LocalAS.Is32Bit() {
			return dst, fmt.Errorf("%w: 32-bit ASN in 2-byte BGP4MP message", ErrMalformed)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(m.PeerAS))
		dst = binary.BigEndian.AppendUint16(dst, uint16(m.LocalAS))
	}
	dst = binary.BigEndian.AppendUint16(dst, m.IfIndex)
	v6 := m.PeerIP.Is6() && !m.PeerIP.Is4In6()
	if v6 {
		dst = binary.BigEndian.AppendUint16(dst, bgp.AFIIPv6)
		p, l := m.PeerIP.As16(), m.LocalIP.As16()
		dst = append(dst, p[:]...)
		dst = append(dst, l[:]...)
	} else {
		dst = binary.BigEndian.AppendUint16(dst, bgp.AFIIPv4)
		p, l := m.PeerIP.As4(), m.LocalIP.As4()
		dst = append(dst, p[:]...)
		dst = append(dst, l[:]...)
	}
	return append(dst, m.Data...), nil
}

// DecodeBGP4MPMessage parses a BGP4MP MESSAGE / MESSAGE_AS4 body into m
// according to subtype. Data aliases b.
func DecodeBGP4MPMessage(m *BGP4MPMessage, b []byte, subtype uint16) error {
	m.FourByte = subtype == SubtypeBGP4MPMessageAS4
	asWidth := 2
	if m.FourByte {
		asWidth = 4
	}
	need := 2*asWidth + 4
	if len(b) < need {
		return ErrTruncated
	}
	if m.FourByte {
		m.PeerAS = asn.ASN(binary.BigEndian.Uint32(b[0:4]))
		m.LocalAS = asn.ASN(binary.BigEndian.Uint32(b[4:8]))
	} else {
		m.PeerAS = asn.ASN(binary.BigEndian.Uint16(b[0:2]))
		m.LocalAS = asn.ASN(binary.BigEndian.Uint16(b[2:4]))
	}
	b = b[2*asWidth:]
	m.IfIndex = binary.BigEndian.Uint16(b[0:2])
	afi := binary.BigEndian.Uint16(b[2:4])
	b = b[4:]
	switch afi {
	case bgp.AFIIPv4:
		if len(b) < 8 {
			return ErrTruncated
		}
		m.PeerIP = netip.AddrFrom4([4]byte(b[0:4]))
		m.LocalIP = netip.AddrFrom4([4]byte(b[4:8]))
		b = b[8:]
	case bgp.AFIIPv6:
		if len(b) < 32 {
			return ErrTruncated
		}
		m.PeerIP = netip.AddrFrom16([16]byte(b[0:16]))
		m.LocalIP = netip.AddrFrom16([16]byte(b[16:32]))
		b = b[32:]
	default:
		return fmt.Errorf("%w: AFI %d", ErrMalformed, afi)
	}
	m.Data = b
	return nil
}
