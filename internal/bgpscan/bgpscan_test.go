package bgpscan

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/collector"
	"parallellives/internal/dates"
	"parallellives/internal/worldsim"
)

func day(s string) dates.Day { return dates.MustParse(s) }

func p(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestVisibilityThreshold(t *testing.T) {
	s := NewScanner()
	if err := s.BeginDay(day("2020-01-01")); err != nil {
		t.Fatal(err)
	}
	// AS 100 seen by two peers; AS 200 by one only.
	s.Observe(p("10.1.0.0/16"), []asn.ASN{3356, 100})
	s.Observe(p("10.1.0.0/16"), []asn.ASN{174, 100})
	s.Observe(p("10.2.0.0/16"), []asn.ASN{3356, 200})
	if err := s.EndDay(); err != nil {
		t.Fatal(err)
	}
	act := s.Finish()
	if !act.ActiveOn(100, day("2020-01-01")) {
		t.Error("AS100 should be active (2 peers)")
	}
	if act.ActiveOn(200, day("2020-01-01")) {
		t.Error("AS200 should be filtered (1 peer)")
	}
	// Transit peers themselves pass: 3356 appears via itself AND via
	// 174's path? No — each path contributes its first hop as peer.
	if act.ActiveOn(174, day("2020-01-01")) {
		t.Error("AS174 seen by only one peer (itself)")
	}
	if act.Stats.DropLowVis == 0 {
		t.Error("expected low-visibility drops recorded")
	}
}

func TestVisibilityOneAcceptsSinglePeer(t *testing.T) {
	s := NewScannerWithVisibility(1)
	s.BeginDay(day("2020-01-01"))
	s.Observe(p("10.2.0.0/16"), []asn.ASN{3356, 200})
	s.EndDay()
	act := s.Finish()
	if !act.ActiveOn(200, day("2020-01-01")) {
		t.Error("minPeers=1 should accept single-peer ASNs")
	}
}

func TestSanitization(t *testing.T) {
	s := NewScanner()
	s.BeginDay(day("2020-01-01"))
	s.Observe(p("10.0.0.0/25"), []asn.ASN{1, 2})            // too long v4
	s.Observe(p("10.0.0.0/7"), []asn.ASN{1, 2})             // too short v4
	s.Observe(p("2001:db8::/80"), []asn.ASN{1, 2})          // too long v6
	s.Observe(p("10.0.0.0/24"), []asn.ASN{1, 2, 3, 2, 4})   // loop
	s.Observe(p("10.0.0.0/24"), []asn.ASN{1, 2, 2, 2, 4})   // prepend, OK
	s.Observe(p("2001:db8::/32"), []asn.ASN{9, 2, 2, 2, 4}) // v6 OK
	s.EndDay()
	act := s.Finish()
	if act.Stats.DropPrefixLen != 3 {
		t.Errorf("DropPrefixLen = %d, want 3", act.Stats.DropPrefixLen)
	}
	if act.Stats.DropLoop != 1 {
		t.Errorf("DropLoop = %d, want 1", act.Stats.DropLoop)
	}
	if !act.ActiveOn(4, day("2020-01-01")) {
		t.Error("AS4 visible from peers 1 and 9")
	}
}

func TestActivityRunsAndGaps(t *testing.T) {
	s := NewScanner()
	obsDays := []string{"2020-01-01", "2020-01-02", "2020-01-05"}
	for _, ds := range obsDays {
		s.BeginDay(day(ds))
		s.Observe(p("10.1.0.0/16"), []asn.ASN{3356, 100})
		s.Observe(p("10.1.0.0/16"), []asn.ASN{174, 100})
		s.EndDay()
	}
	act := s.Finish()
	runs := act.ASNs[100].Days
	if len(runs) != 2 || runs[0].Days() != 2 || runs[1].Days() != 1 {
		t.Errorf("runs = %v", runs)
	}
}

func TestPrefixCounting(t *testing.T) {
	s := NewScanner()
	s.BeginDay(day("2020-01-01"))
	// Same prefix from two peers counts once; two prefixes count twice.
	s.Observe(p("10.1.0.0/16"), []asn.ASN{3356, 100})
	s.Observe(p("10.1.0.0/16"), []asn.ASN{174, 100})
	s.Observe(p("10.2.0.0/16"), []asn.ASN{174, 100})
	s.EndDay()
	s.BeginDay(day("2020-01-02"))
	s.Observe(p("10.1.0.0/16"), []asn.ASN{3356, 100})
	s.Observe(p("10.1.0.0/16"), []asn.ASN{174, 100})
	s.EndDay()
	act := s.Finish()
	d1, d2 := day("2020-01-01"), day("2020-01-02")
	runs := act.ASNs[100].PrefixRuns
	if len(runs) != 2 || runs[0].From != d1 || runs[0].To != d1 || runs[0].Count != 2 ||
		runs[1].From != d2 || runs[1].To != d2 || runs[1].Count != 1 {
		t.Errorf("prefix runs = %+v, want 2 prefixes on day 1, 1 on day 2, none after", runs)
	}
}

func TestDayOrderEnforced(t *testing.T) {
	s := NewScanner()
	s.BeginDay(day("2020-01-02"))
	s.EndDay()
	if err := s.BeginDay(day("2020-01-02")); err == nil {
		t.Error("same day twice should fail")
	}
	s2 := NewScanner()
	s2.BeginDay(day("2020-01-02"))
	if err := s2.BeginDay(day("2020-01-03")); err == nil {
		t.Error("BeginDay during open day should fail")
	}
	if err := s2.EndDay(); err != nil {
		t.Error(err)
	}
	if err := s2.EndDay(); err == nil {
		t.Error("double EndDay should fail")
	}
}

// scanWorld runs both the direct and the MRT wire pipelines over the
// same simulated world and returns both activity maps.
func scanWorld(t *testing.T, cfg worldsim.Config) (direct, wire *Activity) {
	t.Helper()
	if testing.Short() {
		t.Skip("two-year wire/direct scan")
	}
	w := worldsim.Generate(cfg)
	inf := collector.New(w)

	ds := NewScanner()
	it := inf.Iter()
	for it.Next() {
		if err := ds.BeginDay(it.Day()); err != nil {
			t.Fatal(err)
		}
		for _, o := range it.Observations() {
			ds.ObserveRoutes(o.Prefixes, o.Path)
		}
		if err := ds.EndDay(); err != nil {
			t.Fatal(err)
		}
	}
	direct = ds.Finish()

	ws := NewScanner()
	it = inf.Iter()
	for it.Next() {
		if err := ws.BeginDay(it.Day()); err != nil {
			t.Fatal(err)
		}
		ribs, upds, err := it.MRT()
		if err != nil {
			t.Fatal(err)
		}
		for _, rib := range ribs {
			if err := ws.ObserveMRT(rib); err != nil {
				t.Fatal(err)
			}
		}
		for _, upd := range upds {
			if err := ws.ObserveMRT(upd); err != nil {
				t.Fatal(err)
			}
		}
		if err := ws.EndDay(); err != nil {
			t.Fatal(err)
		}
	}
	wire = ws.Finish()
	return direct, wire
}

func shortWorldConfig() worldsim.Config {
	cfg := worldsim.DefaultConfig()
	cfg.Scale = 0.01
	cfg.Start = dates.MustParse("2004-01-01")
	cfg.End = dates.MustParse("2005-12-31")
	return cfg
}

func TestWireModeMatchesDirectMode(t *testing.T) {
	direct, wire := scanWorld(t, shortWorldConfig())
	if len(direct.ASNs) == 0 {
		t.Fatal("no activity scanned")
	}
	if len(direct.ASNs) != len(wire.ASNs) {
		t.Fatalf("ASN counts differ: direct=%d wire=%d", len(direct.ASNs), len(wire.ASNs))
	}
	for a, da := range direct.ASNs {
		wa := wire.ASNs[a]
		if wa == nil {
			t.Fatalf("ASN %v missing from wire mode", a)
		}
		if !da.Days.Equal(wa.Days) {
			t.Fatalf("ASN %v days differ:\n direct %v\n wire   %v", a, da.Days, wa.Days)
		}
	}
	if wire.Stats.RIBRecords == 0 || wire.Stats.UpdateMessages == 0 {
		t.Error("wire mode should process RIB records and updates")
	}
	if wire.Stats.DropPrefixLen == 0 || wire.Stats.DropLoop == 0 {
		t.Errorf("wire mode should drop injected noise: %+v", wire.Stats)
	}
}

func TestScanWorldFiltersInvisibleASNs(t *testing.T) {
	cfg := shortWorldConfig()
	w := worldsim.Generate(cfg)
	direct, _ := scanWorld(t, cfg)

	for _, s := range w.Segments {
		switch s.Vis {
		case worldsim.VisNone:
			if a := direct.ASNs[s.ASN]; a != nil {
				// The ASN may have other, visible segments; check only
				// that this invisible span contributed nothing by itself.
				continue
			}
		case worldsim.VisSinglePeer:
			if direct.ActiveOn(s.ASN, s.Span.Start) {
				// Only a failure if no other full-vis segment covers it.
				covered := false
				for _, o := range w.SegmentsOf(s.ASN) {
					if o.Vis == worldsim.VisFull && o.Span.Contains(s.Span.Start) {
						covered = true
					}
				}
				if !covered {
					t.Errorf("single-peer segment of %v leaked into activity", s.ASN)
				}
			}
		}
	}
}

func TestTransitASNsActiveDaily(t *testing.T) {
	cfg := shortWorldConfig()
	w := worldsim.Generate(cfg)
	direct, _ := scanWorld(t, cfg)
	for _, ta := range w.TransitASNs[:4] {
		a := direct.ASNs[ta]
		if a == nil {
			t.Fatalf("transit %v absent", ta)
		}
		cover := a.Days.TotalDays()
		total := cfg.End.Sub(cfg.Start) + 1
		if float64(cover) < 0.95*float64(total) {
			t.Errorf("transit %v active only %d/%d days", ta, cover, total)
		}
	}
}

func TestPeerBitClampBeyond64Peers(t *testing.T) {
	s := NewScanner()
	s.BeginDay(day("2020-01-01"))
	// 70 distinct peers all sharing paths with AS 100: far beyond the
	// 64-bit mask, the scanner must clamp rather than misbehave.
	for i := 0; i < 70; i++ {
		s.Observe(p("10.1.0.0/16"), []asn.ASN{asn.ASN(1000 + i), 100})
	}
	s.EndDay()
	act := s.Finish()
	if !act.ActiveOn(100, day("2020-01-01")) {
		t.Error("AS100 seen by 70 peers must be active")
	}
}

func TestUpstreamOfSkipsPrepends(t *testing.T) {
	s := NewScanner()
	s.BeginDay(day("2020-01-01"))
	// Origin 100 prepends itself; the upstream is 174, not 100.
	s.Observe(p("10.1.0.0/16"), []asn.ASN{3356, 174, 100, 100, 100})
	s.Observe(p("10.1.0.0/16"), []asn.ASN{6939, 174, 100, 100, 100})
	s.EndDay()
	act := s.Finish()
	a := act.ASNs[100]
	if a == nil {
		t.Fatal("AS100 missing")
	}
	if len(a.Upstreams) != 1 || a.Upstreams[174] != 2 {
		t.Errorf("upstreams = %v", a.Upstreams)
	}
}

func TestOriginDaysVsTransitDays(t *testing.T) {
	s := NewScanner()
	s.BeginDay(day("2020-01-01"))
	// AS 50 is transit for origin 100 — it must get activity but no
	// origin days.
	s.Observe(p("10.1.0.0/16"), []asn.ASN{3356, 50, 100})
	s.Observe(p("10.1.0.0/16"), []asn.ASN{6939, 50, 100})
	s.EndDay()
	act := s.Finish()
	if act.ASNs[50] == nil || act.ASNs[100] == nil {
		t.Fatal("activity missing")
	}
	d1, d2 := day("2020-01-01"), day("2020-01-02")
	if transit := act.ASNs[50]; !transit.Days.Contains(d1) || transit.OriginDays.Contains(d1) {
		t.Errorf("AS50 on day 1: days %v, origin days %v; want visible, not originating", transit.Days, transit.OriginDays)
	}
	if !act.ASNs[100].OriginDays.Contains(d1) {
		t.Errorf("AS100 origin days = %v, want day 1", act.ASNs[100].OriginDays)
	}
	if act.ASNs[50].Days.Contains(d2) {
		t.Error("next day should be absent")
	}
}

func TestPrefixRunSignatureSplitsRuns(t *testing.T) {
	s := NewScanner()
	// Same count, different prefix: the signature must break the run.
	s.BeginDay(day("2020-01-01"))
	s.Observe(p("10.1.0.0/16"), []asn.ASN{3356, 100})
	s.Observe(p("10.1.0.0/16"), []asn.ASN{174, 100})
	s.EndDay()
	s.BeginDay(day("2020-01-02"))
	s.Observe(p("10.2.0.0/16"), []asn.ASN{3356, 100})
	s.Observe(p("10.2.0.0/16"), []asn.ASN{174, 100})
	s.EndDay()
	act := s.Finish()
	runs := act.ASNs[100].PrefixRuns
	if len(runs) != 2 {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].Sig == runs[1].Sig {
		t.Error("different prefixes must yield different signatures")
	}
	if runs[0].Count != 1 || runs[1].Count != 1 {
		t.Error("counts wrong")
	}
}

// TestPrefixHashPinned pins prefixHash: PrefixRun.Sig is an XOR of its
// values and checkpoint journals persist it, so a changed hash silently
// splits or merges runs across a resume. The constants are FNV-1a over
// As16()‖Bits(); the property half checks the same definition on random
// prefixes of both families.
func TestPrefixHashPinned(t *testing.T) {
	for _, c := range []struct {
		prefix string
		want   uint64
	}{
		{"0.0.0.0/0", 0x923e9bb9e0aef441},
		{"10.0.0.0/8", 0x1369c410fb94d9fb},
		{"203.0.113.0/24", 0x07f6ebc4303d1773},
		{"192.0.2.1/32", 0x04127f97d26ba7a2},
		{"::/0", 0x4dfa4cffd1f7979f},
		{"2001:db8::/32", 0x99c8a50b3c0ccf85},
		{"2001:db8:1:2::/64", 0xd5cf0371e7de3846},
		{"2001:db8::1/128", 0x99c59f0b3c0a8f7c},
		{"::ffff:192.0.2.0/120", 0x04162d97d26f0523},
	} {
		if got := prefixHash(p(c.prefix)); got != c.want {
			t.Errorf("prefixHash(%s) = %#x, want %#x", c.prefix, got, c.want)
		}
	}

	byteLoop := func(q netip.Prefix) uint64 {
		h := uint64(14695981039346656037)
		a := q.Addr().As16()
		for _, b := range append(a[:], byte(q.Bits())) {
			h ^= uint64(b)
			h *= 1099511628211
		}
		return h
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var a [16]byte
		rng.Read(a[:])
		addr, bits := netip.AddrFrom16(a), rng.Intn(129)
		if i%2 == 0 {
			addr, bits = netip.AddrFrom4([4]byte(a[:4])), rng.Intn(33)
		}
		q := netip.PrefixFrom(addr, bits)
		if got, want := prefixHash(q), byteLoop(q); got != want {
			t.Fatalf("prefixHash(%s) = %#x, byte loop %#x", q, got, want)
		}
	}
}

func TestObserveMRTRejectsGarbage(t *testing.T) {
	s := NewScanner()
	s.BeginDay(day("2020-01-01"))
	if err := s.ObserveMRT([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("truncated MRT should error")
	}
	s.EndDay()
	s2 := NewScanner()
	if err := s2.ObserveMRT(nil); err == nil {
		t.Error("ObserveMRT outside a day should error")
	}
}

// TestScannerDayShardIndependence pins the invariant the pipeline's
// day-sharded scan relies on: splitting an observation stream at any day
// boundary across two scanners and merging their partials reproduces the
// single-scanner result exactly — days are self-contained, so no state
// crosses the boundary.
func TestScannerDayShardIndependence(t *testing.T) {
	cfg := shortWorldConfig()
	cfg.End = dates.MustParse("2004-06-30")
	w := worldsim.Generate(cfg)
	inf := collector.New(w)

	var days []dates.Day
	for it := inf.Iter(); it.Next(); {
		days = append(days, it.Day())
	}
	n := len(days)
	if n < 4 {
		t.Fatalf("world too small: %d days", n)
	}

	// scanRange feeds day indices [lo, hi) into a fresh scanner and
	// returns its shard partial.
	scanRange := func(lo, hi int) *Activity {
		s := NewScanner()
		idx := 0
		for it := inf.Iter(); it.Next(); idx++ {
			if idx < lo || idx >= hi {
				continue
			}
			if err := s.BeginDay(it.Day()); err != nil {
				t.Fatal(err)
			}
			for _, o := range it.Observations() {
				s.ObserveRoutes(o.Prefixes, o.Path)
			}
			if err := s.EndDay(); err != nil {
				t.Fatal(err)
			}
		}
		return s.TakePartial()
	}

	seq := NewScanner()
	for it := inf.Iter(); it.Next(); {
		if err := seq.BeginDay(it.Day()); err != nil {
			t.Fatal(err)
		}
		for _, o := range it.Observations() {
			seq.ObserveRoutes(o.Prefixes, o.Path)
		}
		if err := seq.EndDay(); err != nil {
			t.Fatal(err)
		}
	}
	want := seq.Finish()
	if len(want.ASNs) == 0 {
		t.Fatal("no activity scanned")
	}

	for _, cut := range []int{1, n / 4, n / 2, 3 * n / 4, n - 1} {
		got := MergeActivities(scanRange(0, cut), scanRange(cut, n))
		if got.Start != want.Start || got.End != want.End {
			t.Fatalf("cut %d: window [%v,%v], want [%v,%v]",
				cut, got.Start, got.End, want.Start, want.End)
		}
		if got.Stats != want.Stats {
			t.Fatalf("cut %d: stats %+v, want %+v", cut, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got.ASNs, want.ASNs) {
			if len(got.ASNs) != len(want.ASNs) {
				t.Fatalf("cut %d: %d ASNs, want %d", cut, len(got.ASNs), len(want.ASNs))
			}
			for a, wa := range want.ASNs {
				if !reflect.DeepEqual(got.ASNs[a], wa) {
					t.Fatalf("cut %d: ASN %v differs:\n got  %+v\n want %+v",
						cut, a, got.ASNs[a], wa)
				}
			}
			t.Fatalf("cut %d: activities differ", cut)
		}
	}
}
