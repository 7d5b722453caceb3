package bgpscan

import (
	"encoding/json"
	"net/netip"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
)

// scribble overwrites s up to its capacity, stale tail included.
func scribble[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// scribbleScratch overwrites every piece of reusable scanner state a
// finished Activity could conceivably share memory with: the dense
// per-ASN slices (peer masks, origin sets), the day's touched list, the
// attribute table (arena, paths, entries, index) with its list of the
// day's entries, and the decode scratch.
func scribbleScratch(t *testing.T, s *Scanner) {
	t.Helper()
	sets := 0
	for i := range s.origin {
		set := &s.origin[i]
		scribble(set.hs, 0xdeadbeefdeadbeef)
		sets += cap(set.hs)
		if set.m != nil {
			clear(set.m)
			set.m[42] = struct{}{}
		}
	}
	if sets == 0 {
		t.Fatal("no retained origin sets to scribble — per-day state gone?")
	}
	scribble(s.peers, ^uint64(0))
	scribble(s.touched, ^uint32(0))
	scribble(s.table.arena, 0xa5)
	scribble(s.table.paths, ^uint32(0))
	scribble(s.table.ents, attrEntry{hits: 1 << 40})
	scribble(s.table.slots, ^uint32(0))
	scribble(s.today, ^uint32(0))
	scribble(s.keep, netip.MustParsePrefix("192.0.2.0/24"))
	scribble(s.flat, 65000)
	scribble(s.pathIDs, ^uint32(0))
	for _, seg := range s.upd.Path {
		scribble(seg.ASNs, 65000)
	}
}

// TestPooledScratchDoesNotAliasActivity pins the reuse contract: the
// Activity returned by Finish must not share memory with the scanner's
// recycled state (the per-ASN origin sets and peer masks, the attribute
// table's arena, the sanitized-prefix buffer, the synthetic update).
// After Finish we scribble over all of it and assert the serialized
// Activity is byte-identical to the snapshot taken before the scribble.
// Half the days arrive as MRT so the attribute table is populated.
func TestPooledScratchDoesNotAliasActivity(t *testing.T) {
	s := NewScannerWithVisibility(1)
	day := dates.MustParse("2010-01-01")
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("2001:db8::/32"),
	}
	for d := 0; d < 8; d++ {
		if err := s.BeginDay(day.AddDays(d)); err != nil {
			t.Fatal(err)
		}
		for origin := asn.ASN(100); origin < 140; origin++ {
			// Vary the prefix count per origin and day so several sets
			// are in play and their reuse is exercised across days.
			n := 1 + int(origin+asn.ASN(d))%len(prefixes)
			s.ObserveRoutes(prefixes[:n], []asn.ASN{1, 2, origin})
			s.Observe(prefixes[d%len(prefixes)], []asn.ASN{3, 4, origin})
		}
		if d%2 == 0 {
			rib := ribArchive(t, []ribRecord{
				{prefixes[0], [][]byte{attrsOf(1, 2, 150), attrsOf(3, 4, 150), attrsOf(1, 2, asn.ASN(151+d))}},
				{prefixes[1], [][]byte{attrsOf(1, 2, 150), attrsOf(3, 4, 150)}},
			})
			if err := s.ObserveMRT(rib); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.EndDay(); err != nil {
			t.Fatal(err)
		}
	}

	act := s.Finish()
	before, err := json.Marshal(act)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.table.arena) == 0 {
		t.Fatal("attribute table empty after MRT days — interning gone?")
	}
	scribbleScratch(t, s)
	after, err := json.Marshal(act)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("Activity changed after scribbling pooled scanner scratch")
	}
}

// TestPooledScratchDoesNotAliasPartial is the TakePartial variant:
// shard outputs feed MergeActivities later, so they too must be
// independent of the recycled scratch.
func TestPooledScratchDoesNotAliasPartial(t *testing.T) {
	s := NewScanner() // paper default visibility: some ASNs stay invisible
	day := dates.MustParse("2011-06-01")
	p := netip.MustParsePrefix("10.2.0.0/16")
	for d := 0; d < 4; d++ {
		if err := s.BeginDay(day.AddDays(d)); err != nil {
			t.Fatal(err)
		}
		// Origin 200 is seen by two peers (visible); 201 by one (invisible,
		// but kept by TakePartial).
		s.Observe(p, []asn.ASN{1, 5, 200})
		s.Observe(p, []asn.ASN{2, 5, 200})
		s.Observe(p, []asn.ASN{1, 6, 201})
		if err := s.EndDay(); err != nil {
			t.Fatal(err)
		}
	}
	act := s.TakePartial()
	before, err := json.Marshal(act)
	if err != nil {
		t.Fatal(err)
	}
	scribbleScratch(t, s)
	after, err := json.Marshal(act)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("partial Activity changed after scribbling pooled scratch")
	}
}
