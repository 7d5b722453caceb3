package pipeline_test

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/collector"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/pipeline"
	"parallellives/internal/worldsim"
)

// The operational oracle: §4.2 and §6 of the paper written the slow
// obvious way, from the raw per-day route observations of a generated
// world — no interval sets, no scanner, no lifetime builder, no MRT. It
// shares with the pipeline only the world, the administrative lifetimes
// (§4.1 has no oracle yet; they are taken from the dataset as given) and
// the plain types that carry dates and counts. What it pins is the
// reading of the paper, at the boundaries where a misreading hides:
//
//   - a route counts when its prefix could propagate globally (IPv4 /8
//     to /24, IPv6 /8 to /64) and its path has no loop (an ASN may
//     repeat only back to back, which is prepending);
//   - an ASN is active on a day when at least `visibility` distinct
//     peers — first hops — shared a counted path containing it;
//   - a new operational life starts when MORE than `timeout` inactive
//     days separate two active days;
//   - an administrative life is unused with no overlapping operational
//     life, partial when one sticks out of it, else complete; an
//     operational life is complete inside an administrative life,
//     partial when it only overlaps one, else outside.

// life is one lifetime, both ends inclusive.
type life struct {
	asn        asn.ASN
	start, end dates.Day
}

// acceptable is the §3.2 prefix-length rule.
func acceptable(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() >= 8 && p.Bits() <= 24
	}
	return p.Bits() >= 8 && p.Bits() <= 64
}

// looped reports whether an ASN comes back after another one intervened.
func looped(path []asn.ASN) bool {
	last := map[asn.ASN]int{}
	for i, a := range path {
		if j, seen := last[a]; seen && j != i-1 {
			return true
		}
		last[a] = i
	}
	return false
}

// peersByDay is, per ASN, per day of the window, the distinct first-hop
// peers that shared a counted path containing the ASN.
type peersByDay map[asn.ASN][][]asn.ASN

func observe(w *worldsim.World) peersByDay {
	seen := peersByDay{}
	days := w.Config.End.Sub(w.Config.Start) + 1
	it := collector.New(w).Iter()
	for it.Next() {
		day := it.Day().Sub(w.Config.Start)
		for _, o := range it.Observations() {
			counted := false
			for _, p := range o.Prefixes {
				counted = counted || acceptable(p)
			}
			if !counted || len(o.Path) == 0 || looped(o.Path) {
				continue
			}
			peer := o.Path[0]
			for _, a := range o.Path {
				if seen[a] == nil {
					seen[a] = make([][]asn.ASN, days)
				}
				known := false
				for _, p := range seen[a][day] {
					known = known || p == peer
				}
				if !known {
					seen[a][day] = append(seen[a][day], peer)
				}
			}
		}
	}
	return seen
}

// opLives segments every ASN's active days, ASNs ascending. It also
// counts the inactive runs that sit on the rule's boundary — exactly
// timeout days (bridged) and exactly timeout+1 (split) — so the test can
// tell whether the worlds exercised it.
func opLives(seen peersByDay, start dates.Day, visibility, timeout int) (lives []life, bridged, split int) {
	var asns []asn.ASN
	for a := range seen {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, a := range asns {
		open := false
		for i, peers := range seen[a] {
			if len(peers) < visibility {
				continue
			}
			day := start.AddDays(i)
			inactive := 0
			if open {
				inactive = day.Sub(lives[len(lives)-1].end) - 1
			}
			if open && inactive <= timeout {
				lives[len(lives)-1].end = day
			} else {
				lives = append(lives, life{a, day, day})
			}
			if open && inactive == timeout {
				bridged++
			} else if inactive == timeout+1 {
				split++
			}
			open = true
		}
	}
	return lives, bridged, split
}

// taxonomy classifies both sides by comparing dates, every pair.
func taxonomy(admin, op []life) core.TaxonomyCounts {
	overlap := func(a, b life) bool { return a.asn == b.asn && a.start <= b.end && b.start <= a.end }
	inside := func(in, out life) bool { return in.asn == out.asn && out.start <= in.start && in.end <= out.end }
	var t core.TaxonomyCounts
	for _, a := range admin {
		overlaps, sticksOut := false, false
		for _, o := range op {
			if overlap(a, o) {
				overlaps = true
				sticksOut = sticksOut || !inside(o, a)
			}
		}
		switch {
		case !overlaps:
			t.AdminUnused++
		case sticksOut:
			t.AdminPartial++
		default:
			t.AdminComplete++
		}
	}
	for _, o := range op {
		overlaps, contained := false, false
		for _, a := range admin {
			overlaps = overlaps || overlap(a, o)
			contained = contained || inside(o, a)
		}
		switch {
		case contained:
			t.OpComplete++
		case overlaps:
			t.OpPartial++
		default:
			t.OpOutside++
		}
	}
	return t
}

// TestOperationalOracle requires pipeline.Run — MRT codec, day-sharded
// scan, interval engine, parallel join — to produce exactly the
// oracle's operational lifetimes and Table 3 counts, over seeds × scales
// × timeouts × visibility thresholds. Flipping `gap > timeout` to `>=`
// in intervals.Set.SplitByTimeout fails it.
func TestOperationalOracle(t *testing.T) {
	seeds, scales := []int64{1, 2, 3}, []float64{0.004, 0.008}
	if testing.Short() {
		seeds, scales = seeds[:1], scales[:1]
	}
	var bridged, split [51]int // by timeout: inactive runs of exactly timeout, and timeout+1, days
	for _, seed := range seeds {
		for _, scale := range scales {
			opts := pipeline.DefaultOptions()
			opts.Wire = true
			opts.World.Seed, opts.World.Scale = seed, scale
			opts.World.Start, opts.World.End = dates.MustParse("2004-01-01"), dates.MustParse("2005-06-30")
			seen := observe(worldsim.Generate(opts.World))
			for _, visibility := range []int{1, 2} {
				for _, timeout := range []int{15, 30, 50} {
					opts.Visibility, opts.Timeout = visibility, timeout
					name := fmt.Sprintf("seed%d/scale%g/vis%d/timeout%d", seed, scale, visibility, timeout)
					ds, err := pipeline.Run(opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, b, s := opLives(seen, opts.World.Start, visibility, timeout)
					bridged[timeout] += b
					split[timeout] += s
					got := make([]life, len(ds.Ops.Lifetimes))
					for i, l := range ds.Ops.Lifetimes {
						got[i] = life{l.ASN, l.Span.Start, l.Span.End}
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: operational lifetimes differ from the oracle's: %s", name, firstDifference(got, want))
						continue
					}
					admin := make([]life, len(ds.Admin.Lifetimes))
					for i, l := range ds.Admin.Lifetimes {
						admin[i] = life{l.ASN, l.Span.Start, l.Span.End}
					}
					if got, want := ds.Joint.Taxonomy(), taxonomy(admin, want); got != want {
						t.Errorf("%s: taxonomy %+v, oracle %+v", name, got, want)
					}
				}
			}
		}
	}
	// Agreement says something about the boundary only if the worlds put
	// lifetimes on both sides of it, for every timeout.
	for _, timeout := range []int{15, 30, 50} {
		if !testing.Short() && (bridged[timeout] == 0 || split[timeout] == 0) {
			t.Errorf("timeout %d: %d inactive runs of exactly %d days and %d of %d; the sweep must reach both",
				timeout, bridged[timeout], timeout, split[timeout], timeout+1)
		}
	}
}

func firstDifference(got, want []life) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("lifetime %d is AS%d %s..%s, oracle AS%d %s..%s",
				i, got[i].asn, got[i].start, got[i].end, want[i].asn, want[i].start, want[i].end)
		}
	}
	return fmt.Sprintf("%d lifetimes, oracle %d", len(got), len(want))
}
