package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
)

func TestRecordFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	bodies := [][]byte{
		{},
		{1, 2, 3},
		bytes.Repeat([]byte{0xab}, 1000),
	}
	for i, b := range bodies {
		if err := w.WriteRecord(uint32(1000+i), TypeBGP4MP, SubtypeBGP4MPMessageAS4, b); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range bodies {
		h, body, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if h.Timestamp != uint32(1000+i) || h.Type != TypeBGP4MP ||
			h.Subtype != SubtypeBGP4MPMessageAS4 || int(h.Length) != len(want) {
			t.Errorf("header %d = %+v", i, h)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("body %d mismatch", i)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(1, TypeBGP4MP, 1, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-2] // chop the tail
	r := NewReader(bytes.NewReader(data))
	if _, _, err := r.Next(); err != ErrTruncated {
		t.Errorf("expected ErrTruncated, got %v", err)
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	if _, _, err := r.Next(); err != ErrTruncated {
		t.Errorf("expected ErrTruncated, got %v", err)
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	tbl := &PeerIndexTable{
		CollectorID: [4]byte{10, 0, 0, 1},
		ViewName:    "rrc00",
		Peers: []Peer{
			{BGPID: [4]byte{1, 1, 1, 1}, Addr: netip.MustParseAddr("192.0.2.1"), AS: 3356},
			{BGPID: [4]byte{2, 2, 2, 2}, Addr: netip.MustParseAddr("2001:db8::2"), AS: 4200000001},
			{BGPID: [4]byte{3, 3, 3, 3}, Addr: netip.MustParseAddr("198.51.100.7"), AS: 174},
		},
	}
	body := tbl.Marshal()
	var got PeerIndexTable
	if err := DecodePeerIndexTable(&got, body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, tbl) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, *tbl)
	}
}

func TestPeerIndexTableTruncation(t *testing.T) {
	tbl := &PeerIndexTable{ViewName: "x", Peers: []Peer{
		{Addr: netip.MustParseAddr("192.0.2.1"), AS: 1},
	}}
	body := tbl.Marshal()
	var got PeerIndexTable
	for cut := 1; cut < len(body); cut++ {
		if err := DecodePeerIndexTable(&got, body[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func ribAttrs(t *testing.T, origin asn.ASN, hops ...asn.ASN) []byte {
	t.Helper()
	u := &bgp.Update{
		Path:      []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: append(hops, origin)}},
		NextHop:   netip.MustParseAddr("10.9.9.9"),
		HasOrigin: true,
	}
	return u.AppendAttrs(nil, true)
}

// ribBody marshals rec, failing the test if it cannot be encoded.
func ribBody(t *testing.T, rec *RIBRecord) []byte {
	t.Helper()
	body, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestRIBRecordRoundTripIPv4(t *testing.T) {
	rec := &RIBRecord{
		Seq:    42,
		Prefix: netip.MustParsePrefix("203.0.113.0/24"),
		Entries: []RIBEntry{
			{PeerIndex: 0, OriginatedTime: 1234, Attrs: ribAttrs(t, 64500, 3356)},
			{PeerIndex: 2, OriginatedTime: 1250, Attrs: ribAttrs(t, 64500, 174, 2914)},
		},
	}
	if rec.Subtype() != SubtypeRIBIPv4Unicast {
		t.Errorf("Subtype = %d", rec.Subtype())
	}
	body := ribBody(t, rec)
	var got RIBRecord
	if err := DecodeRIBRecord(&got, body, false); err != nil {
		t.Fatal(err)
	}
	if got.Seq != rec.Seq || got.Prefix != rec.Prefix || len(got.Entries) != 2 {
		t.Fatalf("got %+v", got)
	}
	// Attribute blocks must survive byte-for-byte and re-decode to the
	// same AS path.
	var u bgp.Update
	u.Reset()
	if err := bgp.DecodeAttrs(&u, got.Entries[1].Attrs, true); err != nil {
		t.Fatal(err)
	}
	o, ok := u.OriginAS()
	if !ok || o != 64500 {
		t.Errorf("origin = %v, %v", o, ok)
	}
	f, _ := u.FirstAS()
	if f != 174 {
		t.Errorf("first = %v", f)
	}
}

func TestRIBRecordRoundTripIPv6(t *testing.T) {
	rec := &RIBRecord{
		Seq:    7,
		Prefix: netip.MustParsePrefix("2001:db8:42::/48"),
		Entries: []RIBEntry{
			{PeerIndex: 1, OriginatedTime: 99, Attrs: ribAttrs(t, 4200000555, 6939)},
		},
	}
	if rec.Subtype() != SubtypeRIBIPv6Unicast {
		t.Errorf("Subtype = %d", rec.Subtype())
	}
	body := ribBody(t, rec)
	var got RIBRecord
	if err := DecodeRIBRecord(&got, body, true); err != nil {
		t.Fatal(err)
	}
	if got.Prefix != rec.Prefix {
		t.Errorf("Prefix = %v", got.Prefix)
	}
}

func TestRIBRecordBadPrefixLen(t *testing.T) {
	rec := &RIBRecord{Seq: 1, Prefix: netip.MustParsePrefix("10.0.0.0/8")}
	body := ribBody(t, rec)
	body[4] = 64 // invalid for IPv4
	var got RIBRecord
	if err := DecodeRIBRecord(&got, body, false); err == nil {
		t.Error("expected error for /64 IPv4 prefix")
	}
}

func TestBGP4MPMessageRoundTrip(t *testing.T) {
	upd := &bgp.Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		Path:      []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []asn.ASN{3356, 64500}}},
		HasOrigin: true,
	}
	for _, fourByte := range []bool{false, true} {
		data, err := upd.Marshal(fourByte)
		if err != nil {
			t.Fatal(err)
		}
		m := &BGP4MPMessage{
			PeerAS: 3356, LocalAS: 65000, IfIndex: 3,
			PeerIP:  netip.MustParseAddr("192.0.2.9"),
			LocalIP: netip.MustParseAddr("192.0.2.10"),
			Data:    data, FourByte: fourByte,
		}
		body, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var got BGP4MPMessage
		if err := DecodeBGP4MPMessage(&got, body, m.Subtype()); err != nil {
			t.Fatal(err)
		}
		if got.PeerAS != m.PeerAS || got.LocalAS != m.LocalAS || got.PeerIP != m.PeerIP ||
			got.LocalIP != m.LocalIP || got.IfIndex != m.IfIndex {
			t.Errorf("fourByte=%v: got %+v", fourByte, got)
		}
		var u bgp.Update
		if err := bgp.DecodeUpdate(&u, got.Data, fourByte); err != nil {
			t.Fatal(err)
		}
		if o, ok := u.OriginAS(); !ok || o != 64500 {
			t.Errorf("origin through MRT = %v, %v", o, ok)
		}
	}
}

func TestBGP4MPMessageIPv6Transport(t *testing.T) {
	m := &BGP4MPMessage{
		PeerAS: 4200000001, LocalAS: 65000,
		PeerIP:   netip.MustParseAddr("2001:db8::9"),
		LocalIP:  netip.MustParseAddr("2001:db8::a"),
		Data:     []byte{1, 2, 3},
		FourByte: true,
	}
	body, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got BGP4MPMessage
	if err := DecodeBGP4MPMessage(&got, body, m.Subtype()); err != nil {
		t.Fatal(err)
	}
	if got.PeerIP != m.PeerIP || got.LocalIP != m.LocalIP || !bytes.Equal(got.Data, m.Data) {
		t.Errorf("got %+v", got)
	}
}

func TestBGP4MPRejects32BitIn2ByteSubtype(t *testing.T) {
	m := &BGP4MPMessage{
		PeerAS: 4200000001, LocalAS: 65000,
		PeerIP:  netip.MustParseAddr("192.0.2.1"),
		LocalIP: netip.MustParseAddr("192.0.2.2"),
	}
	if _, err := m.Marshal(); err == nil {
		t.Error("expected error marshaling 32-bit AS in 2-byte subtype")
	}
}

func TestQuickRIBRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a [4]byte
		r.Read(a[:])
		bits := r.Intn(25)
		prefix, err := netip.AddrFrom4(a).Prefix(bits)
		if err != nil {
			return false
		}
		rec := &RIBRecord{Seq: r.Uint32(), Prefix: prefix}
		for i, n := 0, r.Intn(4); i < n; i++ {
			attrs := make([]byte, r.Intn(30))
			r.Read(attrs)
			rec.Entries = append(rec.Entries, RIBEntry{
				PeerIndex:      uint16(r.Intn(100)),
				OriginatedTime: r.Uint32(),
				Attrs:          attrs,
			})
		}
		body, err := rec.Marshal()
		if err != nil {
			return false
		}
		var got RIBRecord
		if err := DecodeRIBRecord(&got, body, false); err != nil {
			return false
		}
		if got.Seq != rec.Seq || got.Prefix != rec.Prefix || len(got.Entries) != len(rec.Entries) {
			return false
		}
		for i := range got.Entries {
			if got.Entries[i].PeerIndex != rec.Entries[i].PeerIndex ||
				got.Entries[i].OriginatedTime != rec.Entries[i].OriginatedTime ||
				!bytes.Equal(got.Entries[i].Attrs, rec.Entries[i].Attrs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickFramingRoundTrip(t *testing.T) {
	f := func(ts uint32, subtype uint16, body []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(ts, TypeTableDumpV2, subtype, body); err != nil {
			return false
		}
		h, got, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		return h.Timestamp == ts && h.Subtype == subtype && bytes.Equal(got, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRIBRecordRefusesOverflowingCounts: the entry count and each
// attribute length are 16-bit fields; a record that does not fit them is
// refused rather than written with counts that disagree with its bytes.
func TestRIBRecordRefusesOverflowingCounts(t *testing.T) {
	prefix := netip.MustParsePrefix("203.0.113.0/24")
	for name, rec := range map[string]*RIBRecord{
		"entries": {Prefix: prefix, Entries: make([]RIBEntry, 1<<16)},
		"attrs":   {Prefix: prefix, Entries: []RIBEntry{{Attrs: []byte{1}}, {Attrs: make([]byte, 1<<16)}}},
	} {
		dst, err := rec.AppendTo([]byte("kept"))
		if !errors.Is(err, ErrMalformed) || string(dst) != "kept" {
			t.Errorf("%s: AppendTo = %d bytes, %v; want the prefix alone and ErrMalformed", name, len(dst), err)
		}
		if _, err := rec.Marshal(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Marshal error = %v, want ErrMalformed", name, err)
		}
	}
	// The largest record that does fit round-trips.
	rec := &RIBRecord{Prefix: prefix, Entries: make([]RIBEntry, 1<<16-1)}
	rec.Entries[0].Attrs = make([]byte, 1<<16-1)
	var got RIBRecord
	if err := DecodeRIBRecord(&got, ribBody(t, rec), false); err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(rec.Entries) || len(got.Entries[0].Attrs) != len(rec.Entries[0].Attrs) {
		t.Errorf("decoded %d entries, first with %d attribute bytes", len(got.Entries), len(got.Entries[0].Attrs))
	}
}

// TestAppendFormsMatchMarshal pins the append forms of all three record
// bodies and of the record framing on randomised values: they leave the
// bytes already in dst alone, append exactly what Marshal / WriteRecord
// produce, and what they append decodes back to the value.
func TestAppendFormsMatchMarshal(t *testing.T) {
	randAddr := func(r *rand.Rand) netip.Addr {
		if r.Intn(2) == 0 {
			var a [16]byte
			r.Read(a[:])
			a[0] = 0x20
			return netip.AddrFrom16(a)
		}
		var a [4]byte
		r.Read(a[:])
		return netip.AddrFrom4(a)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		kept := make([]byte, r.Intn(40))
		r.Read(kept)
		// same reports whether appended is kept followed by body.
		same := func(appended, body []byte) bool {
			return bytes.Equal(appended[:len(kept)], kept) && bytes.Equal(appended[len(kept):], body)
		}
		dst := func() []byte { return append([]byte(nil), kept...) }

		tbl := &PeerIndexTable{ViewName: "rrc" + string(rune('a'+r.Intn(26)))}
		r.Read(tbl.CollectorID[:])
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			p := Peer{Addr: randAddr(r), AS: asn.ASN(r.Uint32())}
			r.Read(p.BGPID[:])
			tbl.Peers = append(tbl.Peers, p)
		}
		var gotTbl PeerIndexTable
		if !same(tbl.AppendTo(dst()), tbl.Marshal()) ||
			DecodePeerIndexTable(&gotTbl, tbl.AppendTo(nil)) != nil || !reflect.DeepEqual(&gotTbl, tbl) {
			return false
		}

		addr := randAddr(r)
		prefix, err := addr.Prefix(r.Intn(addr.BitLen() + 1))
		if err != nil {
			return false
		}
		rec := &RIBRecord{Seq: r.Uint32(), Prefix: prefix}
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			attrs := make([]byte, r.Intn(300))
			r.Read(attrs)
			rec.Entries = append(rec.Entries, RIBEntry{PeerIndex: uint16(r.Intn(100)), OriginatedTime: r.Uint32(), Attrs: attrs})
		}
		body, err := rec.Marshal()
		appended, err2 := rec.AppendTo(dst())
		var gotRec RIBRecord
		if err != nil || err2 != nil || !same(appended, body) ||
			DecodeRIBRecord(&gotRec, body, addr.Is6()) != nil || !reflect.DeepEqual(&gotRec, rec) {
			return false
		}

		m := &BGP4MPMessage{
			PeerAS: asn.ASN(r.Intn(65000) + 1), LocalAS: asn.ASN(r.Intn(65000) + 1),
			IfIndex: uint16(r.Intn(8)), PeerIP: addr, LocalIP: addr.Next(),
			Data: make([]byte, r.Intn(100)), FourByte: r.Intn(2) == 0,
		}
		r.Read(m.Data)
		body, err = m.Marshal()
		appended, err2 = m.AppendTo(dst())
		var gotMsg BGP4MPMessage
		if err != nil || err2 != nil || !same(appended, body) ||
			DecodeBGP4MPMessage(&gotMsg, body, m.Subtype()) != nil || !reflect.DeepEqual(&gotMsg, m) {
			return false
		}

		var framed bytes.Buffer
		ts, subtype := r.Uint32(), uint16(r.Intn(8))
		if NewWriter(&framed).WriteRecord(ts, TypeBGP4MP, subtype, body) != nil {
			return false
		}
		appended = append(BeginRecord(dst(), ts, TypeBGP4MP, subtype), body...)
		EndRecord(appended, len(kept))
		return same(appended, framed.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNextRecordAgreesWithReader cuts a small archive at every byte and
// requires NextRecord (the slice framer bgpscan walks archives with) and
// Reader.Next to deliver the same records, the same bodies and the same
// class of error — and the same refusal of an oversized length field.
func TestNextRecordAgreesWithReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 6; i++ {
		body := bytes.Repeat([]byte{byte(i)}, i*7) // the first body is empty
		if err := w.WriteRecord(uint32(i), TypeBGP4MP, uint16(i), body); err != nil {
			t.Fatal(err)
		}
	}
	archive := buf.Bytes()
	oversized := append([]byte(nil), archive...)
	binary.BigEndian.PutUint32(oversized[8:12], maxRecordLen+1)
	inputs := [][]byte{oversized}
	for cut := 0; cut <= len(archive); cut++ {
		inputs = append(inputs, archive[:cut])
	}
	class := func(err error) string {
		for _, c := range []error{io.EOF, ErrTruncated, ErrMalformed} {
			if errors.Is(err, c) {
				return c.Error()
			}
		}
		return fmt.Sprint(err) // nil, or a class neither framer should produce
	}
	records := 0
	for _, data := range inputs {
		r := NewReader(bytes.NewReader(data))
		rest := data
		for {
			wh, wbody, werr := r.Next()
			h, body, next, err := NextRecord(rest)
			if class(err) != class(werr) {
				t.Fatalf("%d bytes: NextRecord error %v, Reader.Next error %v", len(data), err, werr)
			}
			if err != nil {
				break
			}
			if h != wh || !bytes.Equal(body, wbody) {
				t.Fatalf("%d bytes: NextRecord %+v (%d bytes), Reader.Next %+v (%d bytes)", len(data), h, len(body), wh, len(wbody))
			}
			if len(next) != len(rest)-headerLen-len(body) {
				t.Fatalf("%d bytes: rest is %d bytes after a %d-byte body of %d", len(data), len(next), len(body), len(rest))
			}
			rest = next
			records++
		}
	}
	if records == 0 {
		t.Fatal("no record framed")
	}
}
