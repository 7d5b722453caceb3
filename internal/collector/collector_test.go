package collector

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/dates"
	"parallellives/internal/mrt"
	"parallellives/internal/worldsim"
)

func testWorld() *worldsim.World { return testWorldAt(1, 0.01) }

func testWorldAt(seed int64, scale float64) *worldsim.World {
	cfg := worldsim.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	cfg.Start = dates.MustParse("2004-01-01")
	cfg.End = dates.MustParse("2004-12-31")
	return worldsim.Generate(cfg)
}

func TestInfrastructureSetup(t *testing.T) {
	w := testWorld()
	inf := New(w)
	cols := inf.Collectors()
	if len(cols) != w.Config.Collectors {
		t.Fatalf("collectors = %d", len(cols))
	}
	seen := map[asn.ASN]bool{}
	for _, c := range cols {
		if len(c.Peers) != w.Config.PeersPerCollector {
			t.Errorf("%s has %d peers", c.Name, len(c.Peers))
		}
		for _, p := range c.Peers {
			if seen[p.AS] {
				t.Errorf("peer AS %v assigned twice", p.AS)
			}
			seen[p.AS] = true
		}
	}
}

func TestIterCoversWindow(t *testing.T) {
	w := testWorld()
	inf := New(w)
	it := inf.Iter()
	n := 0
	var first, last dates.Day
	for it.Next() {
		if n == 0 {
			first = it.Day()
		}
		last = it.Day()
		n++
	}
	if first != w.Config.Start || last != w.Config.End {
		t.Errorf("window covered %v..%v", first, last)
	}
	if n != w.Config.End.Sub(w.Config.Start)+1 {
		t.Errorf("days = %d", n)
	}
}

func TestObservationsShape(t *testing.T) {
	w := testWorld()
	inf := New(w)
	it := inf.Iter()
	if !it.Next() {
		t.Fatal("no days")
	}
	obs := it.Observations()
	if len(obs) == 0 {
		t.Fatal("no observations on day 1")
	}
	for _, o := range obs {
		if len(o.Path) == 0 {
			t.Fatal("observation with empty path")
		}
		if len(o.Prefixes) == 0 {
			t.Fatal("observation with no prefixes")
		}
		if o.Collector >= len(inf.Collectors()) {
			t.Fatal("bad collector index")
		}
		if o.Peer >= len(inf.Collectors()[o.Collector].Peers) {
			t.Fatal("bad peer index")
		}
	}
}

func TestPathsStartAtPeerAndEndAtOrigin(t *testing.T) {
	w := testWorld()
	inf := New(w)
	segByASN := map[asn.ASN]worldsim.Segment{}
	for _, s := range w.Segments {
		segByASN[s.ASN] = s
	}
	it := inf.Iter()
	it.Next()
	for _, o := range it.Observations() {
		peerAS := inf.Collectors()[o.Collector].Peers[o.Peer].AS
		if o.Path[0] != peerAS {
			t.Fatalf("path %v does not start at peer %v", o.Path, peerAS)
		}
	}
}

func TestDeterministicAcrossIters(t *testing.T) {
	w := testWorld()
	inf := New(w)
	countDay := func() (int, int) {
		it := inf.Iter()
		days, obs := 0, 0
		for it.Next() {
			days++
			obs += len(it.Observations())
		}
		return days, obs
	}
	d1, o1 := countDay()
	d2, o2 := countDay()
	if d1 != d2 || o1 != o2 {
		t.Errorf("runs differ: %d/%d days, %d/%d observations", d1, d2, o1, o2)
	}
}

func TestMRTEncodesAllCollectors(t *testing.T) {
	w := testWorld()
	inf := New(w)
	it := inf.Iter()
	it.Next()
	ribs, updates, err := it.MRT()
	if err != nil {
		t.Fatal(err)
	}
	if len(ribs) != len(inf.Collectors()) || len(updates) != len(inf.Collectors()) {
		t.Fatalf("archives: %d ribs, %d updates", len(ribs), len(updates))
	}
	for i, rib := range ribs {
		if len(rib) == 0 {
			t.Errorf("collector %d: empty RIB", i)
		}
	}
}

func TestPrefixDerivationStable(t *testing.T) {
	a := prefixFor(64500, 0, 24)
	b := prefixFor(64500, 0, 24)
	if a != b {
		t.Error("prefixFor not deterministic")
	}
	if prefixFor(64500, 1, 24) == a {
		t.Error("distinct indices should give distinct prefixes")
	}
	if a.Bits() != 24 {
		t.Errorf("bits = %d", a.Bits())
	}
	v6 := prefix6For(64500, 0)
	if !v6.Addr().Is6() || v6.Bits() != 48 {
		t.Errorf("v6 prefix = %v", v6)
	}
}

func TestNoiseInjectedDaily(t *testing.T) {
	w := testWorld()
	inf := New(w)
	it := inf.Iter()
	it.Next()
	tooLong, looped := false, false
	for _, o := range it.Observations() {
		for _, p := range o.Prefixes {
			if p.Addr().Is4() && p.Bits() > 24 {
				tooLong = true
			}
		}
		seen := map[asn.ASN]int{}
		for i, a := range o.Path {
			if prev, ok := seen[a]; ok && i-prev > 1 {
				looped = true
			}
			seen[a] = i
		}
	}
	if !tooLong || !looped {
		t.Errorf("noise missing: tooLong=%v looped=%v", tooLong, looped)
	}
}

// TestMRTMatchesReferenceEncoder pins every byte Iter.MRT writes to the
// reference encoder below, archive by archive, for every day of the test
// world on two seeds. Both worlds carry MOAS segments, so the loser list
// (the update dump's first section) is exercised too; the test asserts
// that it was.
func TestMRTMatchesReferenceEncoder(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		inf := New(testWorldAt(seed, 0.01))
		it := inf.Iter()
		losers := 0
		for it.Next() {
			ribs, updates, err := it.MRT()
			if err != nil {
				t.Fatal(err)
			}
			wantRibs, wantUpdates, n := referenceMRT(t, inf, it.Day(), it.Observations())
			losers += n
			if len(ribs) != len(wantRibs) || len(updates) != len(wantUpdates) {
				t.Fatalf("seed %d %v: %d ribs, %d updates, want %d, %d",
					seed, it.Day(), len(ribs), len(updates), len(wantRibs), len(wantUpdates))
			}
			for ci := range ribs {
				if !bytes.Equal(ribs[ci], wantRibs[ci]) {
					t.Fatalf("seed %d %v collector %d: RIB differs from the reference", seed, it.Day(), ci)
				}
				if !bytes.Equal(updates[ci], wantUpdates[ci]) {
					t.Fatalf("seed %d %v collector %d: update dump differs from the reference", seed, it.Day(), ci)
				}
			}
		}
		if losers == 0 {
			t.Errorf("seed %d: no route lost its RIB slot; the loser path went untested", seed)
		}
	}
}

// TestMRTWindowDigest pins the whole test window's archives to a sha256
// computed on the commit before the append-style encoder (7a0747a), so
// that the reference encoder cannot drift together with the code it
// checks. Each archive is hashed behind its 8-byte big-endian length,
// RIBs then update dumps, in collector order, day by day.
func TestMRTWindowDigest(t *testing.T) {
	const want = "ce831513899938718739a0a80d660fba83316f4b4dc0adf9c0b5cf59c0933a7c"
	h := sha256.New()
	var n [8]byte
	it := New(testWorld()).Iter()
	for it.Next() {
		ribs, updates, err := it.MRT()
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range [][][]byte{ribs, updates} {
			for _, a := range set {
				binary.BigEndian.PutUint64(n[:], uint64(len(a)))
				h.Write(n[:])
				h.Write(a)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("window digest %s, want %s: some archive byte changed", got, want)
	}
}

// referenceMRT is the straightforward encoder Iter.MRT replaced, kept as
// the obviously-right statement of what a day's archives contain: fresh
// maps keyed on netip.Prefix, sort.Slice, one Marshal per structure and
// an mrt.Writer per archive. It reports how many (prefix, peer) routes
// lost the RIB slot to an earlier origin and went to the update dump.
func referenceMRT(t *testing.T, inf *Infrastructure, day dates.Day, obs []Observation) (ribs, updates [][]byte, losers int) {
	t.Helper()
	ts := uint32(day.Unix())
	for ci := range inf.collectors {
		rib, upd, n := referenceCollectorDay(t, &inf.collectors[ci], ci, ts, obs)
		ribs = append(ribs, rib)
		updates = append(updates, upd)
		losers += n
	}
	return ribs, updates, losers
}

func referenceCollectorDay(t *testing.T, col *Collector, ci int, ts uint32, obs []Observation) (rib, upd []byte, nLosers int) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	type routeKey struct {
		prefix netip.Prefix
		peer   int
	}
	type loser struct {
		prefix netip.Prefix
		peer   int
		path   []asn.ASN
	}
	routes := make(map[routeKey][]asn.ASN)
	var losers []loser
	var prefixes []netip.Prefix
	seen := make(map[netip.Prefix]bool)
	for i := range obs {
		o := &obs[i]
		if o.Collector != ci {
			continue
		}
		for _, p := range o.Prefixes {
			k := routeKey{p, o.Peer}
			if _, ok := routes[k]; ok {
				losers = append(losers, loser{prefix: p, peer: o.Peer, path: o.Path})
			} else {
				routes[k] = o.Path
			}
			if !seen[p] {
				seen[p] = true
				prefixes = append(prefixes, p)
			}
		}
	}
	sort.Slice(prefixes, func(i, j int) bool {
		a, b := prefixes[i], prefixes[j]
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c < 0
		}
		return a.Bits() < b.Bits()
	})

	var ribBuf bytes.Buffer
	w := mrt.NewWriter(&ribBuf)
	tbl := mrt.PeerIndexTable{CollectorID: col.ID, ViewName: col.Name, Peers: col.Peers}
	check(w.WriteRecord(ts, mrt.TypeTableDumpV2, mrt.SubtypePeerIndexTable, tbl.Marshal()))
	var seq uint32
	for _, p := range prefixes {
		rec := mrt.RIBRecord{Prefix: p, Seq: seq}
		seq++
		for pi := range col.Peers {
			path, ok := routes[routeKey{p, pi}]
			if !ok {
				continue
			}
			u := bgp.Update{
				Path:      []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: path}},
				NextHop:   netip.AddrFrom4([4]byte{192, 0, 2, 254}),
				HasOrigin: true,
			}
			rec.Entries = append(rec.Entries, mrt.RIBEntry{
				PeerIndex:      uint16(pi),
				OriginatedTime: ts,
				Attrs:          u.AppendAttrs(nil, true),
			})
		}
		if len(rec.Entries) == 0 {
			continue
		}
		body, err := rec.Marshal()
		check(err)
		check(w.WriteRecord(ts, mrt.TypeTableDumpV2, rec.Subtype(), body))
	}

	var updBuf bytes.Buffer
	uw := mrt.NewWriter(&updBuf)
	writeUpdate := func(pi int, path []asn.ASN, prefix netip.Prefix) {
		u := bgp.Update{
			Announced: []netip.Prefix{prefix},
			Path:      []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: path}},
			HasOrigin: true,
		}
		msg, err := u.Marshal(true)
		check(err)
		m := mrt.BGP4MPMessage{
			PeerAS:   col.Peers[pi].AS,
			LocalAS:  65534,
			PeerIP:   col.Peers[pi].Addr,
			LocalIP:  netip.AddrFrom4([4]byte{203, 0, 113, 254}),
			Data:     msg,
			FourByte: true,
		}
		body, err := m.Marshal()
		check(err)
		check(uw.WriteRecord(ts, mrt.TypeBGP4MP, m.Subtype(), body))
	}
	for _, l := range losers {
		writeUpdate(l.peer, l.path, l.prefix)
	}
	count := 0
	for _, p := range prefixes {
		if count >= 64 {
			break
		}
		for pi := range col.Peers {
			if path, ok := routes[routeKey{p, pi}]; ok {
				writeUpdate(pi, path, p)
				count++
				break // one re-announcement per prefix suffices
			}
		}
	}
	return ribBuf.Bytes(), updBuf.Bytes(), len(losers)
}
