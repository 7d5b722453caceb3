package bgpscan

import (
	"bytes"
	"net/netip"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/mrt"
)

// ribRecord is one hand-built RIB record: a prefix and the raw attribute
// block of each entry.
type ribRecord struct {
	prefix netip.Prefix
	attrs  [][]byte
}

// attrsOf encodes the attribute block of a plain AS_SEQUENCE path.
func attrsOf(path ...asn.ASN) []byte {
	u := bgp.Update{HasOrigin: true, Path: []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: path}}}
	return u.AppendAttrs(nil, true)
}

// ribArchive frames records as a TABLE_DUMP_V2 archive behind a
// one-peer PEER_INDEX_TABLE (the scanner takes the peer AS from the
// path, not from the table).
func ribArchive(t testing.TB, recs []ribRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	tbl := mrt.PeerIndexTable{ViewName: "t", Peers: []mrt.Peer{{Addr: netip.MustParseAddr("192.0.2.1"), AS: 1}}}
	if err := w.WriteRecord(0, mrt.TypeTableDumpV2, mrt.SubtypePeerIndexTable, tbl.Marshal()); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		r := mrt.RIBRecord{Seq: uint32(i), Prefix: rec.prefix}
		for _, a := range rec.attrs {
			r.Entries = append(r.Entries, mrt.RIBEntry{Attrs: a})
		}
		body, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(0, mrt.TypeTableDumpV2, r.Subtype(), body); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
