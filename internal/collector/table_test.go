package collector

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/worldsim"
)

// TestPrefixTableKeepsRIBOrder is the table's property test: whatever the
// interleaving of interns, sorted() calls, releases and rebuilds, the
// order it keeps is slices.SortFunc over the keys it holds with
// prefixKey.compare, an id names the prefix it was given for, and a
// prefix has one id. The pool mixes IPv4 and IPv6 and repeats addresses
// at several lengths, so family-before-address and address-before-length
// both decide some comparisons.
func TestPrefixTableKeepsRIBOrder(t *testing.T) {
	var pool []netip.Prefix
	for i := 0; i < 40; i++ {
		a4 := netip.AddrFrom4([4]byte{byte(10 + i%7), byte(i * 37), 0, 0})
		a6 := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i % 5), byte(i * 91)})
		for _, bits := range []int{16, 20, 24} {
			pool = append(pool, netip.PrefixFrom(a4, bits), netip.PrefixFrom(a6, bits+24))
		}
	}
	// 0.0.0.0/0 against ::/0: equal address words and length, family alone
	// orders them.
	pool = append(pool, netip.PrefixFrom(netip.IPv4Unspecified(), 0), netip.PrefixFrom(netip.IPv6Unspecified(), 0))

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tbl prefixTable
		idOf := map[netip.Prefix]int32{} // the model: what the table holds
		check := func(step int) {
			t.Helper()
			want := make([]prefixKey, 0, len(idOf))
			for p := range idOf {
				want = append(want, keyOf(p))
			}
			slices.SortFunc(want, prefixKey.compare)
			got := tbl.sorted()
			if len(got) != len(want) || len(tbl.prefixes) != len(want) {
				t.Fatalf("seed %d step %d: %d sorted ids over %d prefixes, want %d", seed, step, len(got), len(tbl.prefixes), len(want))
			}
			for i, id := range got {
				if tbl.keys[id] != want[i] || keyOf(tbl.prefixes[id]) != want[i] {
					t.Fatalf("seed %d step %d: position %d holds %v, want key %+v", seed, step, i, tbl.prefixes[id], want[i])
				}
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // intern a few, some of them already held
				for n := rng.Intn(8); n >= 0; n-- {
					p := pool[rng.Intn(len(pool))]
					id := tbl.intern(p)
					if old, ok := idOf[p]; ok && old != id {
						t.Fatalf("seed %d step %d: %v renumbered %d -> %d without a reset", seed, step, p, old, id)
					}
					if tbl.prefixes[id] != p {
						t.Fatalf("seed %d step %d: id %d names %v, interned %v", seed, step, id, tbl.prefixes[id], p)
					}
					idOf[p] = id
				}
			case op < 8:
				check(step)
			default: // release a random share; rebuild from the rest once stale
				var live []netip.Prefix
				for p := range idOf {
					if rng.Intn(3) == 0 {
						tbl.released++
					} else {
						live = append(live, p)
					}
				}
				if tbl.stale() {
					tbl.reset()
					clear(idOf)
					for _, p := range live {
						idOf[p] = tbl.intern(p)
					}
				}
			}
		}
		check(400)
	}
}

// moasWorld is a hand-built world in which a fat-fingered origin announces
// two of its victim's three prefixes while the victim announces them too,
// and a second, later segment of the victim announces them again.
func moasWorld() *worldsim.World {
	cfg := worldsim.DefaultConfig()
	cfg.Seed = 3
	cfg.Start, cfg.End = dates.MustParse("2004-01-01"), dates.MustParse("2004-01-20")
	cfg.Collectors, cfg.PeersPerCollector = 2, 2
	day := func(n int) dates.Day { return cfg.Start.AddDays(n) }
	const victim, bogus = asn.ASN(64497), asn.ASN(64498) // neither divisible by 4: IPv4 only
	transit := []asn.ASN{3001, 3002, 3003, 3004, 3005}
	return &worldsim.World{
		Config:      cfg,
		TransitASNs: transit,
		Segments: []worldsim.Segment{
			{ASN: victim, Span: intervals.New(day(0), day(9)), Kind: worldsim.SegNormal, Vis: worldsim.VisFull, Upstream: transit[4], PrefixCount: 3},
			{ASN: bogus, Span: intervals.New(day(2), day(12)), Kind: worldsim.SegFatFinger, Vis: worldsim.VisFull, Upstream: transit[4], PrefixCount: 2, VictimASN: victim},
			{ASN: victim, Span: intervals.New(day(11), day(19)), Kind: worldsim.SegNormal, Vis: worldsim.VisFull, Upstream: transit[4], PrefixCount: 3},
		},
	}
}

// TestSharedPrefixSharesOneID: two live segments that announce the same
// prefix hold the same id for it, and the encoder still gives the RIB
// entry to the earlier segment and the update dump to the later one, as
// the reference encoder does.
func TestSharedPrefixSharesOneID(t *testing.T) {
	inf := New(moasWorld())
	it := inf.Iter()
	days, shared, losers := 0, 0, 0
	for it.Next() {
		days++
		ribs, updates, err := it.MRT()
		if err != nil {
			t.Fatal(err)
		}
		wantRibs, wantUpdates, n := referenceMRT(t, inf, it.Day(), it.Observations())
		losers += n
		for ci := range ribs {
			if !bytes.Equal(ribs[ci], wantRibs[ci]) || !bytes.Equal(updates[ci], wantUpdates[ci]) {
				t.Fatalf("%v collector %d: archives differ from the reference", it.Day(), ci)
			}
		}
		if a, b := it.segCache[0], it.segCache[1]; a != nil && b != nil {
			shared++
			if len(a.ids) != 3 || len(b.ids) != 2 || a.ids[0] != b.ids[0] || a.ids[1] != b.ids[1] {
				t.Fatalf("%v: victim ids %v, fat-finger ids %v; want the first two shared", it.Day(), a.ids, b.ids)
			}
		}
		if n := len(it.table.prefixes); n > 3+3+days {
			t.Fatalf("%v: table holds %d prefixes; the world has 3 and the noise so far 3+%d", it.Day(), n, days)
		}
	}
	if shared == 0 || losers == 0 {
		t.Fatalf("%d days with both segments cached, %d losers; the world was meant to overlap them", shared, losers)
	}
}

// TestPrefixTableBoundedByLivePrefixes runs a six-year window with churn:
// on every day the table is no longer than twice the live segments'
// distinct prefixes plus twice the noise it may have kept (3 fixed
// prefixes and the 250 values of the looped one), every cached segment's
// ids name its prefixes — before and after the rebuilds the window is
// asserted to force — and on the day of a rebuild, when every id is new,
// the archives equal those of an iterator that never met the earlier
// days.
func TestPrefixTableBoundedByLivePrefixes(t *testing.T) {
	cfg := worldsim.DefaultConfig()
	cfg.Seed, cfg.Scale = 4, 0.01
	cfg.Start, cfg.End = dates.MustParse("2004-01-01"), dates.MustParse("2009-12-31")
	inf := New(worldsim.Generate(cfg))
	it := inf.Iter()
	rebuilds, longest, prevLen := 0, 0, 0
	for it.Next() {
		live := map[netip.Prefix]bool{}
		for si, st := range it.segCache {
			if len(st.ids) != len(st.prefixes) {
				t.Fatalf("%v segment %d: %d ids for %d prefixes", it.Day(), si, len(st.ids), len(st.prefixes))
			}
			for i, p := range st.prefixes {
				live[p] = true
				if got := it.table.prefixes[st.ids[i]]; got != p {
					t.Fatalf("%v segment %d: id %d names %v, want %v", it.Day(), si, st.ids[i], got, p)
				}
			}
		}
		n := len(it.table.prefixes)
		if n > 2*(len(live)+253) {
			t.Fatalf("%v: table holds %d prefixes for %d live ones", it.Day(), n, len(live))
		}
		if n < prevLen {
			rebuilds++
			fresh := inf.IterRange(it.Day(), it.Day())
			fresh.Next()
			requireSameArchives(t, it, fresh)
		}
		prevLen, longest = n, max(longest, n)
	}
	if rebuilds < 2 {
		t.Errorf("%d rebuilds over the window (table peaked at %d prefixes); want at least 2", rebuilds, longest)
	}
}

// requireSameArchives encodes the current day of both iterators, which
// must be the same day, and fails on any difference.
func requireSameArchives(t *testing.T, a, b *Iter) {
	t.Helper()
	if a.Day() != b.Day() {
		t.Fatalf("iterators at %v and %v", a.Day(), b.Day())
	}
	aRibs, aUpdates, err := a.MRT()
	if err != nil {
		t.Fatal(err)
	}
	bRibs, bUpdates, err := b.MRT()
	if err != nil {
		t.Fatal(err)
	}
	for ci := range aRibs {
		if !bytes.Equal(aRibs[ci], bRibs[ci]) {
			t.Fatalf("%v collector %d: RIB dumps differ", a.Day(), ci)
		}
		if !bytes.Equal(aUpdates[ci], bUpdates[ci]) {
			t.Fatalf("%v collector %d: update dumps differ", a.Day(), ci)
		}
	}
}

// TestIterRangeMidWindowMatchesFullIterator is the day-shard property
// with state carried across days: an iterator started mid-window numbers
// its prefixes differently from the full iterator, which has interned,
// sorted and released since the window's first day, and still encodes
// byte-equal archives on every day they share.
func TestIterRangeMidWindowMatchesFullIterator(t *testing.T) {
	w := testWorld()
	inf := New(w)
	from := w.Config.Start.AddDays(200)
	full, mid := inf.Iter(), inf.IterRange(from, w.Config.End)
	for full.Next() {
		if full.Day() < from {
			if full.Day().Sub(w.Config.Start)%7 == 0 { // encode some days only: merges of several days' ids
				if _, _, err := full.MRT(); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if !mid.Next() {
			t.Fatalf("mid-window iterator ended before %v", full.Day())
		}
		requireSameArchives(t, full, mid)
	}
	if mid.Next() {
		t.Fatal("mid-window iterator outlived the full one")
	}
}
