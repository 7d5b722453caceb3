package bgp

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"parallellives/internal/asn"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func seq(asns ...asn.ASN) Segment { return Segment{Type: SegmentSequence, ASNs: asns} }

func TestMarshalDecodeRoundTripIPv4(t *testing.T) {
	for _, fourByte := range []bool{false, true} {
		u := &Update{
			Announced: []netip.Prefix{mustPrefix("203.0.113.0/24"), mustPrefix("198.51.0.0/16")},
			Withdrawn: []netip.Prefix{mustPrefix("192.0.2.0/24")},
			Path:      []Segment{seq(64500, 64501, 64502)},
			Origin:    OriginIGP,
			HasOrigin: true,
			NextHop:   netip.MustParseAddr("10.0.0.1"),
		}
		msg, err := u.Marshal(fourByte)
		if err != nil {
			t.Fatal(err)
		}
		var got Update
		if err := DecodeUpdate(&got, msg, fourByte); err != nil {
			t.Fatalf("fourByte=%v: %v", fourByte, err)
		}
		if !reflect.DeepEqual(got.Announced, u.Announced) {
			t.Errorf("Announced = %v, want %v", got.Announced, u.Announced)
		}
		if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) {
			t.Errorf("Withdrawn = %v, want %v", got.Withdrawn, u.Withdrawn)
		}
		if !reflect.DeepEqual(got.Path, u.Path) {
			t.Errorf("Path = %v, want %v", got.Path, u.Path)
		}
		if got.NextHop != u.NextHop {
			t.Errorf("NextHop = %v", got.NextHop)
		}
	}
}

func TestMarshalDecodeRoundTripIPv6(t *testing.T) {
	u := &Update{
		Announced: []netip.Prefix{mustPrefix("2001:db8:1::/48")},
		Withdrawn: []netip.Prefix{mustPrefix("2001:db8:2::/48")},
		Path:      []Segment{seq(64500, 64501)},
		HasOrigin: true,
	}
	msg, err := u.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	var got Update
	if err := DecodeUpdate(&got, msg, true); err != nil {
		t.Fatal(err)
	}
	if len(got.Announced) != 1 || got.Announced[0] != u.Announced[0] {
		t.Errorf("Announced = %v", got.Announced)
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Errorf("Withdrawn = %v", got.Withdrawn)
	}
}

func TestTwoByteEncodingSubstitutesASTrans(t *testing.T) {
	u := &Update{
		Announced: []netip.Prefix{mustPrefix("203.0.113.0/24")},
		Path:      []Segment{seq(64500, 4200000100)},
		HasOrigin: true,
	}
	msg, err := u.Marshal(false)
	if err != nil {
		t.Fatal(err)
	}
	var got Update
	if err := DecodeUpdate(&got, msg, false); err != nil {
		t.Fatal(err)
	}
	want := []Segment{seq(64500, asn.ASTrans)}
	if !reflect.DeepEqual(got.Path, want) {
		t.Errorf("Path = %v, want %v (AS_TRANS substitution)", got.Path, want)
	}
}

func TestOriginAS(t *testing.T) {
	u := &Update{Path: []Segment{seq(1, 2, 3)}}
	o, ok := u.OriginAS()
	if !ok || o != 3 {
		t.Errorf("OriginAS = %v, %v", o, ok)
	}
	f, ok := u.FirstAS()
	if !ok || f != 1 {
		t.Errorf("FirstAS = %v, %v", f, ok)
	}
	// Path ending in AS_SET: ambiguous origin.
	u = &Update{Path: []Segment{seq(1, 2), {Type: SegmentSet, ASNs: []asn.ASN{3, 4}}}}
	if _, ok := u.OriginAS(); ok {
		t.Error("AS_SET origin should be ambiguous")
	}
	if _, ok := (&Update{}).OriginAS(); ok {
		t.Error("empty path has no origin")
	}
}

func TestHasLoop(t *testing.T) {
	cases := []struct {
		path []asn.ASN
		want bool
	}{
		{[]asn.ASN{1, 2, 3}, false},
		{[]asn.ASN{1, 2, 2, 2, 3}, false},       // prepending
		{[]asn.ASN{1, 2, 3, 2}, true},           // loop
		{[]asn.ASN{5, 1, 2, 1, 3}, true},        // loop
		{[]asn.ASN{7, 7, 7}, false},             // pure prepend
		{[]asn.ASN{1}, false},                   // single hop
		{nil, false},                            // empty
		{[]asn.ASN{9, 8, 9, 8}, true},           // alternation
		{[]asn.ASN{1, 2, 3, 3, 3, 4, 3}, true},  // prepend then loop back
		{[]asn.ASN{1, 2, 3, 3, 3, 4, 5}, false}, // prepend mid-path
	}
	for _, c := range cases {
		u := &Update{Path: []Segment{seq(c.path...)}}
		if got := u.HasLoop(); got != c.want {
			t.Errorf("HasLoop(%v) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var u Update
	if err := DecodeUpdate(&u, []byte{1, 2, 3}, true); err == nil {
		t.Error("expected error for short message")
	}
	// Valid header claiming a longer body than present.
	msg := make([]byte, HeaderLen)
	for i := 0; i < 16; i++ {
		msg[i] = 0xff
	}
	msg[16], msg[17] = 0x01, 0x00 // length 256
	msg[18] = TypeUpdate
	if err := DecodeUpdate(&u, msg, true); err == nil {
		t.Error("expected truncation error")
	}
	// KEEPALIVE is not an UPDATE.
	msg[16], msg[17] = 0, HeaderLen
	msg[18] = TypeKeepalive
	if err := DecodeUpdate(&u, msg, true); err == nil {
		t.Error("expected type error")
	}
}

func TestDecodeRejectsBadPrefixLength(t *testing.T) {
	u := &Update{Announced: []netip.Prefix{mustPrefix("203.0.113.0/24")}, HasOrigin: true,
		Path: []Segment{seq(64500)}}
	msg, err := u.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the NLRI prefix length byte (last prefix is at the tail).
	msg[len(msg)-4] = 96 // impossible for IPv4
	var got Update
	if err := DecodeUpdate(&got, msg, true); err == nil {
		t.Error("expected malformed-prefix error")
	}
}

func TestUpdateReuseResets(t *testing.T) {
	u1 := &Update{
		Announced: []netip.Prefix{mustPrefix("203.0.113.0/24")},
		Path:      []Segment{seq(64500, 64501)},
		HasOrigin: true,
	}
	msg1, _ := u1.Marshal(true)
	u2 := &Update{
		Withdrawn: []netip.Prefix{mustPrefix("192.0.2.0/24")},
	}
	msg2, _ := u2.Marshal(true)

	var got Update
	if err := DecodeUpdate(&got, msg1, true); err != nil {
		t.Fatal(err)
	}
	if err := DecodeUpdate(&got, msg2, true); err != nil {
		t.Fatal(err)
	}
	if len(got.Announced) != 0 || len(got.Path) != 0 || got.HasOrigin {
		t.Error("Update not reset between decodes")
	}
	if len(got.Withdrawn) != 1 {
		t.Error("second decode lost withdrawal")
	}
}

func randomPrefix(r *rand.Rand, v6 bool) netip.Prefix {
	if v6 {
		var a [16]byte
		r.Read(a[:])
		a[0] = 0x20
		bits := 8 + r.Intn(57) // /8../64
		return netip.PrefixFrom(netip.AddrFrom16(a), bits).Masked()
	}
	var a [4]byte
	r.Read(a[:])
	if a[0] == 0 {
		a[0] = 10
	}
	bits := 8 + r.Intn(17) // /8../24
	return netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked()
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := &Update{HasOrigin: true, Origin: byte(r.Intn(3))}
		for i, n := 0, r.Intn(5); i < n; i++ {
			u.Announced = append(u.Announced, randomPrefix(r, r.Intn(2) == 0))
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			u.Withdrawn = append(u.Withdrawn, randomPrefix(r, r.Intn(2) == 0))
		}
		nhops := 1 + r.Intn(6)
		hops := make([]asn.ASN, nhops)
		for i := range hops {
			hops[i] = asn.ASN(r.Intn(400000) + 1)
		}
		u.Path = []Segment{seq(hops...)}

		msg, err := u.Marshal(true)
		if err != nil {
			return false
		}
		var got Update
		if err := DecodeUpdate(&got, msg, true); err != nil {
			return false
		}
		// Announced/Withdrawn preserved as sets (v4 and v6 may reorder
		// relative to each other since v6 travels in MP attributes).
		if !samePrefixSet(got.Announced, u.Announced) || !samePrefixSet(got.Withdrawn, u.Withdrawn) {
			return false
		}
		return reflect.DeepEqual(got.Path, u.Path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func samePrefixSet(a, b []netip.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[netip.Prefix]int{}
	for _, p := range a {
		m[p]++
	}
	for _, p := range b {
		m[p]--
		if m[p] < 0 {
			return false
		}
	}
	return true
}

// TestLongASPathSegmentsSplit pins the AS_PATH segment count byte: a
// segment of more than 255 ASNs is written as consecutive segments of
// the same type, so a heavily prepended path decodes to the same flat
// path, origin and first AS instead of to garbage.
func TestLongASPathSegmentsSplit(t *testing.T) {
	for _, n := range []int{255, 256, 600} {
		for _, fourByte := range []bool{false, true} {
			hops := make([]asn.ASN, n)
			for i := range hops {
				hops[i] = asn.ASN(1000 + i)
			}
			u := &Update{Path: []Segment{seq(hops...)}, HasOrigin: true, NextHop: netip.MustParseAddr("10.0.0.1")}

			var got Update
			if err := DecodeAttrs(&got, u.AppendAttrs(nil, fourByte), fourByte); err != nil {
				t.Fatalf("n=%d fourByte=%v: attrs: %v", n, fourByte, err)
			}
			checkLongPath(t, &got, hops)

			u.Announced = []netip.Prefix{mustPrefix("203.0.113.0/24")}
			msg, err := u.Marshal(fourByte)
			if err != nil {
				t.Fatalf("n=%d fourByte=%v: %v", n, fourByte, err)
			}
			if err := DecodeUpdate(&got, msg, fourByte); err != nil {
				t.Fatalf("n=%d fourByte=%v: message: %v", n, fourByte, err)
			}
			checkLongPath(t, &got, hops)
			if wantSegs := (n + 254) / 255; len(got.Path) != wantSegs {
				t.Errorf("n=%d: %d segments, want %d", n, len(got.Path), wantSegs)
			}
		}
	}
}

func checkLongPath(t *testing.T, got *Update, hops []asn.ASN) {
	t.Helper()
	if flat := got.FlatPath(nil); !reflect.DeepEqual(flat, hops) {
		t.Errorf("FlatPath has %d ASNs, want the %d encoded", len(flat), len(hops))
	}
	if o, ok := got.OriginAS(); !ok || o != hops[len(hops)-1] {
		t.Errorf("OriginAS = %v, %v, want %v", o, ok, hops[len(hops)-1])
	}
	if f, ok := got.FirstAS(); !ok || f != hops[0] {
		t.Errorf("FirstAS = %v, %v, want %v", f, ok, hops[0])
	}
	for _, s := range got.Path {
		if s.Type != SegmentSequence || len(s.ASNs) > 255 {
			t.Errorf("segment type %d with %d ASNs", s.Type, len(s.ASNs))
		}
	}
}

// TestAppendFormsMatchMarshal pins the append forms on randomised
// updates: they leave the bytes already in dst alone, append exactly
// what Marshal / AppendAttrs(nil) return, and what they append decodes back.
func TestAppendFormsMatchMarshal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fourByte := r.Intn(2) == 0
		u := &Update{HasOrigin: r.Intn(2) == 0, Origin: byte(r.Intn(3))}
		for i, n := 0, r.Intn(5); i < n; i++ {
			u.Announced = append(u.Announced, randomPrefix(r, r.Intn(2) == 0))
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			u.Withdrawn = append(u.Withdrawn, randomPrefix(r, r.Intn(2) == 0))
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			s := Segment{Type: byte(1 + r.Intn(2)), ASNs: make([]asn.ASN, r.Intn(80))}
			for j := range s.ASNs {
				s.ASNs[j] = asn.ASN(r.Intn(60000) + 1)
			}
			u.Path = append(u.Path, s)
		}
		if r.Intn(2) == 0 {
			u.NextHop = netip.AddrFrom4([4]byte{10, 0, 0, byte(r.Intn(256))})
		}
		prefix := make([]byte, r.Intn(40))
		r.Read(prefix)

		msg, err := u.Marshal(fourByte)
		if err != nil {
			return false
		}
		appended, err := u.AppendMessage(append([]byte(nil), prefix...), fourByte)
		if err != nil || !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], msg) {
			return false
		}
		var got Update
		if err := DecodeUpdate(&got, msg, fourByte); err != nil {
			return false
		}
		if !samePrefixSet(got.Announced, u.Announced) || !samePrefixSet(got.Withdrawn, u.Withdrawn) {
			return false
		}

		attrs := u.AppendAttrs(nil, fourByte)
		appended = u.AppendAttrs(append([]byte(nil), prefix...), fourByte)
		if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], attrs) {
			return false
		}
		got.Reset()
		if err := DecodeAttrs(&got, attrs, fourByte); err != nil {
			return false
		}
		return reflect.DeepEqual(got.FlatPath(nil), u.FlatPath(nil)) && got.Origin == u.Origin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAppendMessageOverflowLeavesDstUnchanged: a message over the 4096
// byte cap is refused and nothing stays appended.
func TestAppendMessageOverflowLeavesDstUnchanged(t *testing.T) {
	u := &Update{Path: []Segment{seq(make([]asn.ASN, 1100)...)}, HasOrigin: true}
	dst, err := u.AppendMessage([]byte("kept"), true)
	if !errors.Is(err, ErrMalformed) || string(dst) != "kept" {
		t.Errorf("AppendMessage = %q, %v; want the prefix alone and ErrMalformed", dst, err)
	}
}

// TestDecodedPathSegmentsShareOneBacking pins what carving segments out
// of one Update-owned slice must not change: a decoded Update is
// untouched by decoding into a different Update, re-decoding into the
// same one after Reset is correct (longer, shorter, then longer paths),
// appending to one segment cannot reach the next, and a reused Update
// decodes paths without allocating.
func TestDecodedPathSegmentsShareOneBacking(t *testing.T) {
	paths := [][]Segment{
		{seq(64500, 64501), {Type: SegmentSet, ASNs: []asn.ASN{64510, 64511, 64512}}, seq(64520)},
		{seq(65001)},
		{seq(64500, 64501, 64502, 64503, 64504, 64505, 64506), seq(), seq(64530, 64531)},
	}
	var blocks [][]byte
	for _, p := range paths {
		u := Update{Path: p, HasOrigin: true}
		blocks = append(blocks, u.AppendAttrs(nil, true))
	}
	// samePath compares decoded segments with the encoded ones; an empty
	// segment may decode to a nil or an empty slice.
	samePath := func(got, want []Segment) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Type != want[i].Type || !slices.Equal(got[i].ASNs, want[i].ASNs) {
				return false
			}
		}
		return true
	}

	var a, b Update
	if err := DecodeAttrs(&a, blocks[0], true); err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		b.Reset()
		if err := DecodeAttrs(&b, blk, true); err != nil {
			t.Fatal(err)
		}
		if !samePath(a.Path, paths[0]) {
			t.Fatalf("decoding into another Update changed this one: %+v", a.Path)
		}
	}

	for round := 0; round < 2; round++ {
		for i, blk := range blocks {
			a.Reset()
			if err := DecodeAttrs(&a, blk, true); err != nil {
				t.Fatal(err)
			}
			if !samePath(a.Path, paths[i]) {
				t.Fatalf("round %d: re-decoded path %d = %+v", round, i, a.Path)
			}
		}
	}

	a.Reset()
	if err := DecodeAttrs(&a, blocks[0], true); err != nil {
		t.Fatal(err)
	}
	_ = append(a.Path[0].ASNs, 1, 2, 3)
	if !samePath(a.Path, paths[0]) {
		t.Fatalf("appending to a segment overwrote its neighbour: %+v", a.Path)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		for _, blk := range blocks {
			a.Reset()
			if DecodeAttrs(&a, blk, true) != nil {
				t.Fatal("decode failed")
			}
		}
	}); allocs != 0 {
		t.Errorf("%.0f allocations decoding into a reused Update", allocs)
	}
}
