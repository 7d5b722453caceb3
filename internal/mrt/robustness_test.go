package mrt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"testing"
)

// TestReaderSurvivesRandomCorruption mutates a valid archive at random
// positions and asserts the reader never panics and always terminates
// with EOF or an error.
func TestReaderSurvivesRandomCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tbl := PeerIndexTable{ViewName: "v", Peers: []Peer{
		{Addr: netip.MustParseAddr("192.0.2.1"), AS: 3356},
		{Addr: netip.MustParseAddr("2001:db8::1"), AS: 6939},
	}}
	if err := w.WriteRecord(1, TypeTableDumpV2, SubtypePeerIndexTable, tbl.Marshal()); err != nil {
		t.Fatal(err)
	}
	rec := RIBRecord{Prefix: netip.MustParsePrefix("203.0.113.0/24"),
		Entries: []RIBEntry{{PeerIndex: 0, Attrs: []byte{0x40, 1, 1, 0}}}}
	for i := 0; i < 20; i++ {
		rec.Seq = uint32(i)
		if err := w.WriteRecord(uint32(i), TypeTableDumpV2, SubtypeRIBIPv4Unicast, ribBody(t, &rec)); err != nil {
			t.Fatal(err)
		}
	}
	clean := buf.Bytes()

	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		data := append([]byte(nil), clean...)
		for k := 0; k < 1+r.Intn(6); k++ {
			data[r.Intn(len(data))] ^= byte(1 + r.Intn(255))
		}
		if r.Intn(3) == 0 {
			data = data[:r.Intn(len(data))]
		}
		reader := NewReader(bytes.NewReader(data))
		var tblGot PeerIndexTable
		var recGot RIBRecord
		for records := 0; records < 1000; records++ {
			h, body, err := reader.Next()
			if errors.Is(err, io.EOF) || err != nil && !errors.Is(err, io.EOF) {
				break
			}
			switch {
			case h.Type == TypeTableDumpV2 && h.Subtype == SubtypePeerIndexTable:
				_ = DecodePeerIndexTable(&tblGot, body)
			case h.Type == TypeTableDumpV2 && h.Subtype == SubtypeRIBIPv4Unicast:
				_ = DecodeRIBRecord(&recGot, body, false)
			}
		}
	}
}
