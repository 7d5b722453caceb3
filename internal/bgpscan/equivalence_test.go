package bgpscan

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/collector"
	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/worldsim"
)

// scanner is the surface the production Scanner and the referenceScanner
// share, so one driver feeds both.
type scanner interface {
	BeginDay(dates.Day) error
	ObserveMRT([]byte) error
	ObserveRoutes([]netip.Prefix, []asn.ASN)
	EndDay() error
	Finish() *Activity
	TakePartial() *Activity
	Stats() Stats
}

// grouped is one direct observation, copied out of the collector.
type grouped struct {
	prefixes []netip.Prefix
	path     []asn.ASN
}

// scanDay is one day's input: MRT archives and direct observations.
type scanDay struct {
	day      dates.Day
	archives [][]byte
	direct   []grouped
}

// feed drives days through s; afterDay, if set, runs after each EndDay.
func feed(t testing.TB, s scanner, days []scanDay, afterDay func(i int)) {
	t.Helper()
	for i, d := range days {
		if err := s.BeginDay(d.day); err != nil {
			t.Fatal(err)
		}
		for _, a := range d.archives {
			if err := s.ObserveMRT(a); err != nil {
				t.Fatalf("day %v: %v", d.day, err)
			}
		}
		for _, g := range d.direct {
			s.ObserveRoutes(g.prefixes, g.path)
		}
		if err := s.EndDay(); err != nil {
			t.Fatal(err)
		}
		if afterDay != nil {
			afterDay(i)
		}
	}
}

// rawSegments encodes an attribute block whose AS_PATH is the given
// segments, for paths attrsOf cannot express (AS_SETs, empty segments).
func rawSegments(segs ...bgp.Segment) []byte {
	u := bgp.Update{HasOrigin: true, Path: segs}
	return u.AppendAttrs(nil, true)
}

func seqSeg(a ...asn.ASN) bgp.Segment { return bgp.Segment{Type: bgp.SegmentSequence, ASNs: a} }
func setSeg(a ...asn.ASN) bgp.Segment { return bgp.Segment{Type: bgp.SegmentSet, ASNs: a} }

// dirtyArchive is a hand-built RIB dump holding every class of attribute
// block the intern table has an outcome for, each carried by several
// routes so the repeat path sees it too: looped, truncated, malformed,
// pathless, peerless (an empty first segment), AS_SET-terminated (no
// origin), all-origin (no upstream), and zero-length — plus a record the
// prefix-length filter drops and an IPv6 record. salt varies one path per
// day so some blocks are fresh while the rest are carried over.
func dirtyArchive(t testing.TB, salt int) []byte {
	ok1, ok2 := attrsOf(64601, 64700, 64800), attrsOf(64602, 64700, 64800)
	truncated := ok1[:len(ok1)-3]
	malformed := slices.Clone(ok1)
	malformed[7] = 9 // AS_PATH segment type (after ORIGIN's 4 bytes and a 3-byte header)
	badOrigin := []byte{0x40, bgp.AttrOrigin, 2, 0, 0}
	var u bgp.Update
	if err := bgp.DecodeAttrs(&u, truncated, true); !errors.Is(err, bgp.ErrTruncated) {
		t.Fatalf("truncated block decodes as %v", err)
	}
	for _, b := range [][]byte{malformed, badOrigin} {
		if err := bgp.DecodeAttrs(&u, b, true); !errors.Is(err, bgp.ErrMalformed) {
			t.Fatalf("malformed block decodes as %v", err)
		}
	}
	blocks := [][]byte{
		ok1, ok2,
		attrsOf(64601, 64700, 64601, 64800), // loop
		truncated, malformed, badOrigin,
		{0x40, bgp.AttrOrigin, 1, 0}, // no AS_PATH at all
		{},                           // zero-length block
		rawSegments(seqSeg(), seqSeg(64601, 64800)),              // first segment empty: no peer
		rawSegments(seqSeg(64601, 64700), setSeg(64801, 64802)),  // ends in a set: no origin
		attrsOf(64803, 64803, 64803),                             // all origin: no upstream
		attrsOf(64602, 64700, 64800, 64800),                      // prepended origin
		attrsOf(64601, asn.ASN(65000+salt), 64800),               // fresh every day
		rawSegments(seqSeg(64602), setSeg(64700), seqSeg(64804)), // set mid-path
	}
	var every, firstHalf [][]byte
	for i, b := range blocks {
		every = append(every, b, b) // each block twice in one record
		if i < len(blocks)/2 {
			firstHalf = append(firstHalf, b)
		}
	}
	return ribArchive(t, []ribRecord{
		{netip.MustParsePrefix("198.51.100.0/24"), every},
		{netip.MustParsePrefix("203.0.113.0/24"), firstHalf},
		{netip.MustParsePrefix("203.0.113.128/30"), every}, // too long: dropped whole
		{netip.MustParsePrefix("2001:db8:100::/48"), every},
		{netip.MustParsePrefix("198.51.100.0/24"), blocks}, // a prefix seen twice
	})
}

// crowdArchive is a RIB dump shared by 70 peers (AS 61000–61069), more
// than the 64-bit peer mask holds, registered in ascending order starting
// at 61000+first, so the order decides visibility: AS 64900 is on every
// path; AS 64901 is seen only by peers 61065 and 61066, which from
// first=0 are the 66th and 67th to register and collapse onto bit 63 —
// one peer bit, invisible at the default threshold; AS 64902 is seen by
// 61001 and 61066.
func crowdArchive(t testing.TB, first int) []byte {
	var all, late, split [][]byte
	for i := 0; i < 70; i++ {
		peer := asn.ASN(61000 + (first+i)%70)
		all = append(all, attrsOf(peer, 64900))
		if peer == 61065 || peer == 61066 {
			late = append(late, attrsOf(peer, 64901))
		}
		if peer == 61001 || peer == 61066 {
			split = append(split, attrsOf(peer, 64902))
		}
	}
	return ribArchive(t, []ribRecord{
		{netip.MustParsePrefix("192.0.2.0/24"), all},
		{netip.MustParsePrefix("198.18.0.0/16"), late},
		{netip.MustParsePrefix("198.19.0.0/16"), split},
	})
}

// worldDays renders a generated world's window as scan input: the
// collector's MRT archives for every day (mangled by in when set), the
// dirty archive daily, the crowd archive on days 10–12 and 40, and the
// day's direct observations every fifth day — so RIB entries, BGP4MP
// messages and ObserveRoutes all write the same day state.
func worldDays(t testing.TB, seed int64, in *faults.Injector) []scanDay {
	t.Helper()
	cfg := worldsim.DefaultConfig()
	cfg.Seed, cfg.Scale = seed, 0.01
	cfg.Start, cfg.End = dates.MustParse("2004-01-01"), dates.MustParse("2004-03-15")
	inf := collector.New(worldsim.Generate(cfg))
	var days []scanDay
	for it := inf.IterRange(cfg.Start, cfg.End); it.Next(); {
		i := len(days)
		ribs, upds, err := it.MRT()
		if err != nil {
			t.Fatal(err)
		}
		d := scanDay{day: it.Day()}
		for k, a := range append(ribs, upds...) {
			if in != nil {
				a, _ = in.MangleMRT(uint64(i)<<8|uint64(k), a)
			}
			d.archives = append(d.archives, a)
		}
		d.archives = append(d.archives, dirtyArchive(t, i))
		if (i >= 10 && i <= 12) || i == 40 {
			// Before the world's own archives on day 12, after them otherwise.
			if i == 12 {
				d.archives = append([][]byte{crowdArchive(t, i)}, d.archives...)
			} else {
				d.archives = append(d.archives, crowdArchive(t, i))
			}
		}
		if i%5 == 0 {
			for _, o := range it.Observations() {
				d.direct = append(d.direct, grouped{slices.Clone(o.Prefixes), slices.Clone(o.Path)})
			}
		}
		days = append(days, d)
	}
	if len(days) < 60 {
		t.Fatalf("world window too short: %d days", len(days))
	}
	return days
}

// tableProbe watches the production scanner's intern table from outside
// the scan: how many blocks the days applied, how many of them were
// carried over from an earlier day, and the most peers a day registered.
type tableProbe struct {
	s                         *Scanner
	blockDays, carried, peers int
}

func (p *tableProbe) afterDay(int) {
	p.blockDays += len(p.s.today)
	p.carried = int(p.s.TableStats().Carried)
	p.peers = max(p.peers, len(p.s.peerIdx))
}

// diffActivity reports the first difference between two activities, or
// "" when reflect.DeepEqual holds (nil-versus-empty included).
func diffActivity(got, want *Activity) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	if got.Start != want.Start || got.End != want.End {
		return fmt.Sprintf("window [%v,%v], want [%v,%v]", got.Start, got.End, want.Start, want.End)
	}
	if got.Stats != want.Stats {
		return fmt.Sprintf("stats\n got  %+v\n want %+v", got.Stats, want.Stats)
	}
	if len(got.ASNs) != len(want.ASNs) {
		return fmt.Sprintf("%d ASNs, want %d", len(got.ASNs), len(want.ASNs))
	}
	for a, wa := range want.ASNs {
		if !reflect.DeepEqual(got.ASNs[a], wa) {
			return fmt.Sprintf("ASN %v\n got  %+v\n want %+v", a, got.ASNs[a], wa)
		}
	}
	return "activities differ"
}

// TestReferenceEquivalence requires the interning scanner to reproduce
// the map-based referenceScanner exactly — Days, OriginDays, PrefixRuns
// with their signatures, Upstreams, every Stats field — over generated
// worlds, clean and fault-mangled, whole and day-sharded three ways, at
// both visibility thresholds; and checks that the runs went through the
// code the equivalence is about.
func TestReferenceEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scans eight generated worlds twice")
	}
	for _, seed := range []int64{1, 7} {
		for _, mangled := range []bool{false, true} {
			var in *faults.Injector
			if mangled {
				in = faults.NewInjector(faults.Plan{Seed: seed, TruncateRecordRate: 0.08, TailChopRate: 0.2})
			}
			days := worldDays(t, seed, in)
			for _, minPeers := range []int{1, 2} {
				t.Run(fmt.Sprintf("seed%d/mangled=%v/vis%d", seed, mangled, minPeers), func(t *testing.T) {
					ref := newReferenceScanner(minPeers)
					ref.Quarantine = mangled
					feed(t, ref, days, nil)
					want := ref.Finish()

					s := NewScannerWithVisibility(minPeers)
					s.Quarantine = mangled
					probe := &tableProbe{s: s}
					feed(t, s, days, probe.afterDay)
					got := s.Finish()
					if d := diffActivity(got, want); d != "" {
						t.Fatalf("Finish: %s", d)
					}

					// Three shards, each a fresh scanner with an empty table:
					// the partials must match the reference's one by one, and
					// their merge the unsharded result.
					cuts := []int{0, len(days) / 3, 2 * len(days) / 3, len(days)}
					var gotParts, wantParts []*Activity
					for k := 0; k < 3; k++ {
						shard := days[cuts[k]:cuts[k+1]]
						rs := newReferenceScanner(minPeers)
						rs.Quarantine = mangled
						feed(t, rs, shard, nil)
						wantParts = append(wantParts, rs.TakePartial())
						ns := NewScannerWithVisibility(minPeers)
						ns.Quarantine = mangled
						feed(t, ns, shard, nil)
						gotParts = append(gotParts, ns.TakePartial())
						if d := diffActivity(gotParts[k], wantParts[k]); d != "" {
							t.Fatalf("TakePartial of shard %d: %s", k, d)
						}
					}
					if d := diffActivity(MergeActivities(gotParts...), want); d != "" {
						t.Fatalf("MergeActivities of 3 shards: %s", d)
					}

					// The run must have been about something.
					st := got.Stats
					if st.RIBRecords == 0 || st.UpdateMessages == 0 || st.Routes == 0 {
						t.Fatalf("nothing scanned: %+v", st)
					}
					if st.DropLoop == 0 || st.DropMalformed == 0 || st.DropPrefixLen == 0 || st.QuarantinedTruncated == 0 {
						t.Errorf("a drop class was never exercised: %+v", st)
					}
					if minPeers > 1 && st.DropLowVis == 0 {
						t.Errorf("visibility threshold never applied: %+v", st)
					}
					if mangled && st.QuarantinedTails == 0 {
						t.Errorf("no archive tail quarantined under the fault plan: %+v", st)
					}
					if int64(probe.blockDays) >= st.Routes/2 {
						t.Errorf("routes barely repeat blocks: %d block-days for %d routes", probe.blockDays, st.Routes)
					}
					if probe.carried == 0 || probe.carried >= probe.blockDays {
						t.Errorf("cross-day re-application not exercised: %d of %d block-days carried over", probe.carried, probe.blockDays)
					}
					if probe.peers <= 64 {
						t.Errorf("no day exceeded the 64-bit peer mask (max %d peers)", probe.peers)
					}
				})
			}
		}
	}
}

// TestPeerBitClampOrder pins the one place where the order of peer
// registration is visible in the result: past 64 peers the bits collapse,
// so which peers collapse decides who passes the threshold. The interning
// scanner registers a block's peer when the block is first seen in a day
// — on the second day that is a re-application from yesterday's table —
// and must land on the reference's answer both days.
func TestPeerBitClampOrder(t *testing.T) {
	days := []scanDay{
		{day: day("2020-01-01"), archives: [][]byte{crowdArchive(t, 0)}},
		{day: day("2020-01-02"), archives: [][]byte{crowdArchive(t, 0)}},
		{day: day("2020-01-03"), archives: [][]byte{crowdArchive(t, 30)}},
	}
	ref := newReferenceScanner(MinPeerVisibility)
	feed(t, ref, days, nil)
	want := ref.Finish()
	s := NewScanner()
	feed(t, s, days, nil)
	got := s.Finish()
	if d := diffActivity(got, want); d != "" {
		t.Fatal(d)
	}
	// Peers 65 and 66 share bit 63 on the first two days: one bit, invisible.
	// Rotated by 30 they land on distinct low bits and AS 64901 appears.
	if got.ActiveOn(64901, days[0].day) || got.ActiveOn(64901, days[1].day) {
		t.Error("AS 64901 is seen only through clamped peers and must stay invisible")
	}
	if !got.ActiveOn(64901, days[2].day) {
		t.Error("AS 64901 must be visible once its peers hold distinct bits")
	}
	if !got.ActiveOn(64902, days[0].day) || !got.ActiveOn(64900, days[1].day) {
		t.Error("ASes seen through an unclamped peer must be visible")
	}
}
