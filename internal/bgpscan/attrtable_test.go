package bgpscan

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
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
	d0 := day("2020-01-01")
	if tab.find(h, a) >= 0 {
		t.Fatal("empty table found a block")
	}
	tab.add(h, a, []uint32{1, 2, 3}, route{origin: 3}, d0)
	if tab.find(h, b) >= 0 {
		t.Fatal("a block was found by bytes that differ in the last byte")
	}
	if tab.find(h, a[:len(a)-1]) >= 0 || tab.find(h, append(slices.Clone(a), 0)) >= 0 {
		t.Fatal("a block was found by a prefix or an extension of its bytes")
	}
	tab.add(h, b, []uint32{1, 2, 4}, route{origin: 4}, d0)
	ia, ib := tab.find(h, a), tab.find(h, b)
	if ia < 0 || ib < 0 || ia == ib || tab.ents[ia].origin != 3 || tab.ents[ib].origin != 4 {
		t.Fatalf("colliding blocks share an entry: %d %d", ia, ib)
	}
	if !slices.Equal(tab.pathOf(&tab.ents[ia]), []uint32{1, 2, 3}) || !slices.Equal(tab.pathOf(&tab.ents[ib]), []uint32{1, 2, 4}) {
		t.Fatal("colliding blocks share a path")
	}

	// Past several index growths every block is still found by its bytes;
	// after a compaction that keeps the odd ones, exactly those are, with
	// their own paths; nothing is after a compaction to a day none has.
	blocks := [][]byte{a, b}
	for i := 0; i < 5000; i++ {
		blk := binary.BigEndian.AppendUint32(slices.Clone(a), uint32(i))
		blocks = append(blocks, blk)
		tab.add(uint32(i%7), blk, []uint32{uint32(i)}, route{origin: uint32(100 + i)}, d0.AddDays(i%2))
	}
	for i, blk := range blocks[2:] {
		if e := tab.find(uint32(i%7), blk); e < 0 || tab.ents[e].origin != uint32(100+i) {
			t.Fatalf("block %d lost after growth: %d", i, e)
		}
	}
	tab.compact(d0.AddDays(1))
	for i, blk := range blocks[2:] {
		e := tab.find(uint32(i%7), blk)
		if (e >= 0) != (i%2 == 1) || e >= 0 && (tab.ents[e].origin != uint32(100+i) || !slices.Equal(tab.pathOf(&tab.ents[e]), []uint32{uint32(i)})) {
			t.Fatalf("block %d after compaction: %d", i, e)
		}
	}
	if tab.find(h, a) >= 0 || len(tab.ents) != 2500 || len(tab.arena) != 2500*len(blocks[2]) {
		t.Fatalf("compaction kept %d entries, %d bytes", len(tab.ents), len(tab.arena))
	}
	tab.compact(dates.None) // a day no entry has: the table empties
	if tab.find(1, blocks[3]) >= 0 || len(tab.arena)+len(tab.paths)+len(tab.ents) != 0 {
		t.Fatal("emptying compaction left entries behind")
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

// boundProbe checks attrTable's stated bound after every day: the table
// holds at most 3/2 of the blocks the day before applied plus the blocks
// the day decoded, and records the largest table it saw.
type boundProbe struct {
	t                    *testing.T
	s                    *Scanner
	prevLive, most       int
	decoded, compactions int64
}

func (p *boundProbe) afterDay(i int) {
	st := p.s.TableStats()
	n := len(p.s.table.ents)
	if limit := 3*p.prevLive/2 + int(st.Decoded-p.decoded); n > limit {
		p.t.Fatalf("day %d: %d blocks in the table, bound %d", i, n, limit)
	}
	p.prevLive, p.most, p.decoded, p.compactions = len(p.s.today), max(p.most, n), st.Decoded, st.Compactions
}

// TestTableBoundedAcrossDays: with every block fresh every day, the table
// keeps to its stated bound — here two days' worth, not thirty — and so
// do its capacities.
func TestTableBoundedAcrossDays(t *testing.T) {
	const perDay = 300
	blockBytes := len(attrsOf(1, 2, 3))
	s := NewScanner()
	probe := &boundProbe{t: t, s: s}
	for d := 0; d < 30; d++ {
		s.BeginDay(day("2020-01-01").AddDays(d))
		if err := s.ObserveMRT(freshDay(t, d, perDay)); err != nil {
			t.Fatal(err)
		}
		s.EndDay()
		probe.afterDay(d)
	}
	if probe.most != 2*perDay || probe.compactions < 14 {
		t.Fatalf("table peaked at %d blocks over %d compactions, want %d over one every other day", probe.most, probe.compactions, 2*perDay)
	}
	// Capacities too: append may have doubled past the peak, never more.
	tab := &s.table
	if cap(tab.arena) > 4*perDay*blockBytes || cap(tab.ents) > 4*perDay || cap(tab.paths) > 4*perDay*3 || len(tab.slots) > 8*perDay {
		t.Errorf("the table grew past its bound: arena %d ents %d paths %d slots %d",
			cap(tab.arena), cap(tab.ents), cap(tab.paths), len(tab.slots))
	}
	if got := s.Finish().Stats.Routes; got != 30*perDay {
		t.Errorf("routes = %d", got)
	}
}

// TestColdRunGrowsByDoubling pins DESIGN.md §15.1 rule 4 for the
// attribute table and the scanner's per-ASN slices: over a cold run in
// which every day brings new blocks and new origins, each capacity that
// changes at least doubles.
func TestColdRunGrowsByDoubling(t *testing.T) {
	const days, perDay = 40, 60
	s := NewScanner()
	caps := map[string][]int{}
	var recs []ribRecord
	for d := 0; d < days; d++ {
		for i := d * perDay; i < (d+1)*perDay; i++ {
			prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
			recs = append(recs, ribRecord{prefix, [][]byte{attrsOf(61000+asn.ASN(i%2), 62000+asn.ASN(i%5), 100000+asn.ASN(i))}})
		}
		if s.BeginDay(day("2020-01-01").AddDays(d)) != nil || s.ObserveMRT(ribArchive(t, recs)) != nil || s.EndDay() != nil {
			t.Fatal("scan failed")
		}
		for name, c := range map[string]int{
			"table.ents": cap(s.table.ents), "table.arena": cap(s.table.arena), "table.paths": cap(s.table.paths),
			"asns": cap(s.asns), "peers": cap(s.peers), "origin": cap(s.origin), "built": cap(s.built),
			"today": cap(s.today), "touched": cap(s.touched),
		} {
			caps[name] = append(caps[name], c)
		}
	}
	for name, cs := range caps {
		for i := 1; i < len(cs); i++ {
			if cs[i] != cs[i-1] && cs[i] < 2*cs[i-1] {
				t.Errorf("%s: capacity %d → %d on day %d", name, cs[i-1], cs[i], i)
			}
		}
	}
	if st := s.TableStats(); st.Compactions != 0 {
		t.Fatalf("the table compacted (%+v): it should only grow here", st)
	}
}

// TestTableCompactsUnderChurn: a third of the blocks are new each day and
// a third retire, so compactions run among carried blocks; the table
// keeps to its bound every day, and the activity is the reference's.
func TestTableCompactsUnderChurn(t *testing.T) {
	const perDay, step = 240, 80
	var days []scanDay
	for d := 0; d < 24; d++ {
		var recs []ribRecord
		for i := d * step; i < d*step+perDay; i++ {
			attrs := [][]byte{attrsOf(61000+asn.ASN(i%3), 62000+asn.ASN(i%11), 100000+asn.ASN(i))}
			if i%4 == 0 {
				attrs = append(attrs, attrsOf(61003, 62000+asn.ASN(i%11), 100000+asn.ASN(i)))
			}
			recs = append(recs, ribRecord{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24), attrs})
		}
		days = append(days, scanDay{day: day("2020-01-01").AddDays(d), archives: [][]byte{ribArchive(t, recs)}})
	}
	ref := newReferenceScanner(MinPeerVisibility)
	feed(t, ref, days, nil)
	s := NewScanner()
	probe := &boundProbe{t: t, s: s}
	feed(t, s, days, probe.afterDay)
	if d := diffActivity(s.Finish(), ref.Finish()); d != "" {
		t.Fatal(d)
	}
	st := s.TableStats()
	if st.Compactions == 0 || st.Carried == 0 || probe.most >= 3*perDay*5/4 {
		t.Fatalf("no churn exercised: %+v, table peaked at %d blocks", st, probe.most)
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
		scanDay() // the table and the day's state at capacity
		if allocs := testing.AllocsPerRun(20, scanDay); allocs > 2 {
			t.Errorf("%d routes: %.0f allocations per repeated day", records*entries, allocs)
		}
		if got := s.Finish().Stats.Routes; got != int64(23*records*entries) {
			t.Errorf("routes = %d", got)
		}
	}
}
