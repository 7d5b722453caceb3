package bgpscan

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"

	"parallellives/internal/asn"
)

// TestTableKeysAreBytes: two blocks that differ only in their last byte
// are two entries even when they are given the same hash, and each is
// found by its own bytes only. Then the same through a scanner, where the
// last byte of a block is the low byte of the origin AS.
func TestTableKeysAreBytes(t *testing.T) {
	a := attrsOf(64601, 64700, 0x10001)
	b := slices.Clone(a)
	b[len(b)-1]++
	const h = 0x5ca1ab1e // forced collision: the hash may only pick the probe start
	var tab attrTable
	if tab.find(h, a) != nil {
		t.Fatal("empty table found a block")
	}
	tab.add(h, a, []uint32{1, 2, 3}, route{origin: 3})
	if tab.find(h, b) != nil {
		t.Fatal("a block was found by bytes that differ in the last byte")
	}
	if tab.find(h, a[:len(a)-1]) != nil || tab.find(h, append(slices.Clone(a), 0)) != nil {
		t.Fatal("a block was found by a prefix or an extension of its bytes")
	}
	tab.add(h, b, []uint32{1, 2, 4}, route{origin: 4})
	ea, eb := tab.find(h, a), tab.find(h, b)
	if ea == nil || eb == nil || ea == eb || ea.origin != 3 || eb.origin != 4 {
		t.Fatalf("colliding blocks share an entry: %+v %+v", ea, eb)
	}
	if !slices.Equal(tab.pathOf(ea), []uint32{1, 2, 3}) || !slices.Equal(tab.pathOf(eb), []uint32{1, 2, 4}) {
		t.Fatal("colliding blocks share a path")
	}

	// Past several index growths every block is still found by its bytes,
	// and nothing is after a reset.
	blocks := [][]byte{a, b}
	for i := 0; i < 5000; i++ {
		blk := binary.BigEndian.AppendUint32(slices.Clone(a), uint32(i))
		blocks = append(blocks, blk)
		tab.add(uint64(i%7), blk, nil, route{origin: uint32(100 + i)})
	}
	for i, blk := range blocks[2:] {
		if e := tab.find(uint64(i%7), blk); e == nil || e.origin != uint32(100+i) {
			t.Fatalf("block %d lost after growth: %+v", i, e)
		}
	}
	tab.reset()
	if tab.find(h, a) != nil || len(tab.arena)+len(tab.paths)+len(tab.ents) != 0 {
		t.Fatal("reset left entries behind")
	}

	s := NewScannerWithVisibility(1)
	s.BeginDay(day("2020-01-01"))
	if err := s.ObserveMRT(ribArchive(t, []ribRecord{{p("10.1.0.0/16"), [][]byte{a, b, a, b}}})); err != nil {
		t.Fatal(err)
	}
	s.EndDay()
	act := s.Finish()
	for _, origin := range []asn.ASN{0x10001, 0x10002} {
		if aa := act.ASNs[origin]; aa == nil || aa.Upstreams[64700] != 2 {
			t.Errorf("origin %v: %+v", origin, aa)
		}
	}
}

// TestObserveMRTKeepsNothingOfTheArchive overwrites every archive the
// moment ObserveMRT returns — the caller's buffer reused for the next
// read — and scans on: the table owns copies of the blocks it interned,
// so yesterday's entries still match today's bytes and the result is the
// unscribbled scan's.
func TestObserveMRTKeepsNothingOfTheArchive(t *testing.T) {
	days := worldDays(t, 1, nil)[:30]
	clean := NewScanner()
	feed(t, clean, days, nil)
	want := clean.Finish()

	s := NewScanner()
	for _, d := range days {
		if err := s.BeginDay(d.day); err != nil {
			t.Fatal(err)
		}
		for _, a := range d.archives {
			buf := slices.Clone(a)
			if err := s.ObserveMRT(buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 0xff
			}
		}
		for _, g := range d.direct {
			s.ObserveRoutes(g.prefixes, g.path)
		}
		if err := s.EndDay(); err != nil {
			t.Fatal(err)
		}
	}
	if d := diffActivity(s.Finish(), want); d != "" {
		t.Fatalf("scan over scribbled archives: %s", d)
	}
}

// freshDay is a RIB dump of n routes whose paths all name an AS unique to
// the day, so none of its blocks has been seen before.
func freshDay(t testing.TB, d, n int) []byte {
	var attrs [][]byte
	for i := 0; i < n; i++ {
		attrs = append(attrs, attrsOf(asn.ASN(61000+i%3), asn.ASN(100000+d), asn.ASN(200000+i)))
	}
	return ribArchive(t, []ribRecord{{netip.MustParsePrefix("10.1.0.0/16"), attrs}})
}

// TestTableBoundedByTwoDays: with every block fresh every day, the table
// retains two days' worth — today's and yesterday's — not thirty.
func TestTableBoundedByTwoDays(t *testing.T) {
	const perDay = 300
	blockBytes := len(attrsOf(1, 2, 3))
	s := NewScanner()
	for d := 0; d < 30; d++ {
		s.BeginDay(day("2020-01-01").AddDays(d))
		if err := s.ObserveMRT(freshDay(t, d, perDay)); err != nil {
			t.Fatal(err)
		}
		s.EndDay()
		if n := len(s.cur.ents) + len(s.prev.ents); n > 2*perDay {
			t.Fatalf("day %d: %d blocks retained, want at most %d", d, n, 2*perDay)
		}
	}
	if len(s.cur.ents) != perDay || len(s.prev.ents) != perDay {
		t.Fatalf("generations hold %d and %d blocks, want %d each", len(s.cur.ents), len(s.prev.ents), perDay)
	}
	for _, tab := range []*attrTable{s.cur, s.prev} {
		// Capacities too: append may have doubled past a day's need, never more.
		if cap(tab.arena) > 4*perDay*blockBytes || cap(tab.ents) > 4*perDay || cap(tab.paths) > 4*perDay*3 || len(tab.slots) > 8*perDay {
			t.Errorf("a generation grew past one day's worth: arena %d ents %d paths %d slots %d",
				cap(tab.arena), cap(tab.ents), cap(tab.paths), len(tab.slots))
		}
	}
	if got := s.Finish().Stats.Routes; got != 30*perDay {
		t.Errorf("routes = %d", got)
	}
}

// TestRepeatedDayAllocatesNothing: once a day's blocks are in the table,
// scanning the same day again — every block carried over, every route a
// repeat — allocates a small constant, whatever the number of routes.
func TestRepeatedDayAllocatesNothing(t *testing.T) {
	// Records stay under originSetSpill per origin: a spilled set rebuilds
	// its map every day by design.
	for _, size := range [][2]int{{10, 40}, {50, 400}} {
		records, entries := size[0], size[1]
		var recs []ribRecord
		for r := 0; r < records; r++ {
			var attrs [][]byte
			for i := 0; i < entries; i++ {
				attrs = append(attrs, attrsOf(asn.ASN(61000+i%4), asn.ASN(62000+i%7), asn.ASN(63000+i)))
			}
			recs = append(recs, ribRecord{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(r >> 8), byte(r), 0}), 24), attrs})
		}
		archive := ribArchive(t, recs)
		s := NewScanner()
		d := day("2020-01-01")
		scanDay := func() {
			d = d.AddDays(1)
			if s.BeginDay(d) != nil || s.ObserveMRT(archive) != nil || s.EndDay() != nil {
				t.Fatal("scan failed")
			}
		}
		scanDay()
		scanDay() // both generations at capacity
		if allocs := testing.AllocsPerRun(20, scanDay); allocs > 2 {
			t.Errorf("%d routes: %.0f allocations per repeated day", records*entries, allocs)
		}
		if got := s.Finish().Stats.Routes; got != int64(23*records*entries) {
			t.Errorf("routes = %d", got)
		}
	}
}
