package bgpscan

// referenceScanner is the map-based scanner this package shipped before
// RIB attribute blocks were interned, kept verbatim (names aside) as the
// specification the production Scanner is tested against: every route
// decodes its own attribute block, loop-checks it and writes the per-day
// maps itself. It shares only prefixHash, prefixOK and the exported
// result types with the production code.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/mrt"
)

type referenceScanner struct {
	// Quarantine, when set, makes ObserveMRT treat a broken record frame
	// as the end of that archive (counted in Stats.QuarantinedTails)
	// instead of failing the whole day. Per-record decode errors are
	// always skipped and counted, frame errors only under this flag —
	// FailFast pipelines leave it unset and keep the seed behaviour.
	Quarantine bool

	minPeers int
	stats    Stats

	start, end dates.Day
	curDay     dates.Day
	inDay      bool

	// Per-day state: for each ASN on a path, the set of distinct peer
	// ASes that shared it (as a bitmask over registered peers), and for
	// each origin the distinct prefixes announced. Origin sets are pooled
	// (setPool) and reused day after day: BeginDay returns the previous
	// day's sets to the pool, so steady-state days allocate nothing.
	peerIdx   map[asn.ASN]int
	dayPeers  map[asn.ASN]uint64
	dayOrigin map[asn.ASN]*refOriginSet
	setPool   []*refOriginSet

	// Accumulated per-ASN runs.
	building map[asn.ASN]*refBuilder

	// Reusable decode scratch.
	one  [1]netip.Prefix
	keep []netip.Prefix
	upd  bgp.Update
	tbl  mrt.PeerIndexTable
	rib  mrt.RIBRecord
	b4mp mrt.BGP4MPMessage
}

type refBuilder struct {
	days       []intervals.Interval
	originDays []intervals.Interval
	prefixRuns []PrefixRun
	upstreams  map[asn.ASN]int64
}

// refOriginSet accumulates the distinct prefixes one origin announced on one
// day, as per-prefix FNV-1a hashes: a small linearly-deduplicated slice,
// spilling to a map above originSetSpill. Distinct-prefix counting and
// the order-independent XOR signature both work on the hashes, so the
// prefixes themselves never need to be retained per day.
type refOriginSet struct {
	hs []uint64
	m  map[uint64]struct{}
}

// add inserts the hash of p if it is not already present.
func (s *refOriginSet) add(p netip.Prefix) {
	h := prefixHash(p)
	if s.m != nil {
		s.m[h] = struct{}{}
		return
	}
	for _, x := range s.hs {
		if x == h {
			return
		}
	}
	if len(s.hs) >= originSetSpill {
		s.m = make(map[uint64]struct{}, 2*originSetSpill)
		for _, x := range s.hs {
			s.m[x] = struct{}{}
		}
		s.m[h] = struct{}{}
		s.hs = s.hs[:0]
		return
	}
	s.hs = append(s.hs, h)
}

// count returns the number of distinct prefixes seen.
func (s *refOriginSet) count() int {
	if s.m != nil {
		return len(s.m)
	}
	return len(s.hs)
}

// sig returns the order-independent XOR signature of the set.
func (s *refOriginSet) sig() uint64 {
	var sig uint64
	if s.m != nil {
		for h := range s.m {
			sig ^= h
		}
		return sig
	}
	for _, h := range s.hs {
		sig ^= h
	}
	return sig
}

// reset readies the set for reuse, keeping the slice capacity and
// dropping any spill map (spilling is rare; holding the buckets for every
// pooled set would pin far more memory than rebuilding the odd map).
func (s *refOriginSet) reset() {
	s.hs = s.hs[:0]
	s.m = nil
}

// NewScannerWithVisibility returns a scanner requiring at least minPeers
// distinct peer ASes per day. minPeers=1 reproduces the naive pipeline
// the paper warns against (the ablation benchmark exercises it).
func newReferenceScanner(minPeers int) *referenceScanner {
	if minPeers < 1 {
		minPeers = 1
	}
	return &referenceScanner{
		minPeers:  minPeers,
		peerIdx:   make(map[asn.ASN]int),
		dayPeers:  make(map[asn.ASN]uint64),
		dayOrigin: make(map[asn.ASN]*refOriginSet),
		building:  make(map[asn.ASN]*refBuilder),
		start:     dates.None,
		end:       dates.None,
	}
}

// BeginDay opens a new day; days must be fed in ascending order.
func (s *referenceScanner) BeginDay(d dates.Day) error {
	if s.inDay {
		return fmt.Errorf("bgpscan: BeginDay(%v) before EndDay", d)
	}
	if s.start != dates.None && d <= s.end {
		return fmt.Errorf("bgpscan: day %v not after %v", d, s.end)
	}
	if s.start == dates.None {
		s.start = d
	}
	s.curDay = d
	s.inDay = true
	clear(s.peerIdx)
	clear(s.dayPeers)
	for _, set := range s.dayOrigin {
		set.reset()
		s.setPool = append(s.setPool, set)
	}
	clear(s.dayOrigin)
	return nil
}

// peerBit registers (or finds) the bitmask bit for a peer AS. Bits are
// assigned per day (peerIdx is cleared in BeginDay), so a day's
// visibility mask depends only on that day's observations — the
// self-containment property that lets a day range be sharded across
// scanners and merged back exactly.
func (s *referenceScanner) peerBit(peer asn.ASN) uint64 {
	i, ok := s.peerIdx[peer]
	if !ok {
		i = len(s.peerIdx)
		if i >= 64 {
			i = 63 // clamp: more than 64 peers in a day collapse onto one bit
		}
		s.peerIdx[peer] = i
	}
	return 1 << uint(i)
}

// Observe feeds one route observation: a path for a prefix shared by a
// peer AS. The path must start at the peer.
func (s *referenceScanner) Observe(prefix netip.Prefix, path []asn.ASN) {
	s.ObserveRoutes([]netip.Prefix{prefix}, path)
}

// ObserveRoutes feeds one path carrying several prefixes — the grouped
// form the collectors produce. Prefixes failing the length sanitization
// are dropped individually; the path contributes activity if at least
// one prefix survives.
func (s *referenceScanner) ObserveRoutes(prefixes []netip.Prefix, path []asn.ASN) {
	if !s.inDay || len(path) == 0 {
		return
	}
	s.keep = s.keep[:0]
	for _, p := range prefixes {
		if prefixOK(p) {
			s.keep = append(s.keep, p)
		} else {
			s.stats.DropPrefixLen++
		}
	}
	kept := s.keep
	if len(kept) == 0 {
		return
	}
	s.upd.Reset()
	s.upd.Path = append(s.upd.Path[:0], bgp.Segment{Type: bgp.SegmentSequence, ASNs: path})
	if s.upd.HasLoop() {
		s.stats.DropLoop++
		return
	}
	s.observePath(kept, &s.upd)
}

// observePath records a sanitized path's ASNs and origin prefixes. The
// prefixes must already have passed the length sanitization.
func (s *referenceScanner) observePath(prefixes []netip.Prefix, u *bgp.Update) {
	first, ok := u.FirstAS()
	if !ok {
		return
	}
	bit := s.peerBit(first)
	var flat [64]asn.ASN
	for _, a := range u.FlatPath(flat[:0]) {
		s.dayPeers[a] |= bit
	}
	if origin, ok := u.OriginAS(); ok {
		set := s.dayOrigin[origin]
		if set == nil {
			if n := len(s.setPool); n > 0 {
				set = s.setPool[n-1]
				s.setPool = s.setPool[:n-1]
			} else {
				set = &refOriginSet{}
			}
			s.dayOrigin[origin] = set
		}
		for _, p := range prefixes {
			set.add(p)
		}
		if up, ok := s.upstreamOf(u, origin); ok {
			b := s.building[origin]
			if b == nil {
				b = &refBuilder{}
				s.building[origin] = b
			}
			if b.upstreams == nil {
				b.upstreams = make(map[asn.ASN]int64, 2)
			}
			b.upstreams[up]++
		}
	}
	s.stats.Routes++
}

// upstreamOf returns the neighbor AS immediately preceding the origin's
// (possibly prepended) run at the end of the path.
func (s *referenceScanner) upstreamOf(u *bgp.Update, origin asn.ASN) (asn.ASN, bool) {
	var flat [64]asn.ASN
	path := u.FlatPath(flat[:0])
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] != origin {
			return path[i], true
		}
	}
	return 0, false
}

// ObserveMRT feeds one MRT archive (an io-free byte slice) for the
// current day: TABLE_DUMP_V2 RIB dumps and/or BGP4MP update dumps.
func (s *referenceScanner) ObserveMRT(data []byte) error {
	if !s.inDay {
		return fmt.Errorf("bgpscan: ObserveMRT outside a day")
	}
	r := mrt.NewReader(bytes.NewReader(data))
	havePeers := false
	for {
		h, body, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if s.Quarantine {
				// Broken framing: an interrupted transfer cut the archive
				// mid-record. Everything before the cut has already been
				// consumed; keep it and abandon the rest of this archive.
				s.stats.QuarantinedTails++
				break
			}
			return err
		}
		switch h.Type {
		case mrt.TypeTableDumpV2:
			switch h.Subtype {
			case mrt.SubtypePeerIndexTable:
				if err := mrt.DecodePeerIndexTable(&s.tbl, body); err != nil {
					s.stats.DropMalformed++
					continue
				}
				havePeers = true
			case mrt.SubtypeRIBIPv4Unicast, mrt.SubtypeRIBIPv6Unicast:
				if !havePeers {
					s.stats.DropMalformed++
					continue
				}
				v6 := h.Subtype == mrt.SubtypeRIBIPv6Unicast
				if err := mrt.DecodeRIBRecord(&s.rib, body, v6); err != nil {
					s.quarantineDecode(err)
					continue
				}
				s.stats.RIBRecords++
				s.scanRIBRecord()
			}
		case mrt.TypeBGP4MP, mrt.TypeBGP4MPET:
			if h.Subtype != mrt.SubtypeBGP4MPMessage && h.Subtype != mrt.SubtypeBGP4MPMessageAS4 {
				continue
			}
			if err := mrt.DecodeBGP4MPMessage(&s.b4mp, body, h.Subtype); err != nil {
				s.quarantineDecode(err)
				continue
			}
			s.stats.UpdateMessages++
			s.scanBGP4MP()
		}
	}
	return nil
}

// quarantineDecode classifies one skipped record's decode error:
// bytes-ran-out damage counts as truncation, anything else as generic
// malformedness. Skipping (rather than failing the day) matches the seed
// behaviour; only the classification is new.
func (s *referenceScanner) quarantineDecode(err error) {
	if errors.Is(err, mrt.ErrTruncated) || errors.Is(err, bgp.ErrTruncated) {
		s.stats.QuarantinedTruncated++
	} else {
		s.stats.DropMalformed++
	}
}

func (s *referenceScanner) scanRIBRecord() {
	if !prefixOK(s.rib.Prefix) {
		s.stats.DropPrefixLen++
		return
	}
	for _, e := range s.rib.Entries {
		s.upd.Reset()
		if err := bgp.DecodeAttrs(&s.upd, e.Attrs, true); err != nil {
			s.quarantineDecode(err)
			continue
		}
		if s.upd.HasLoop() {
			s.stats.DropLoop++
			continue
		}
		s.observePath(s.onePrefix(s.rib.Prefix), &s.upd)
	}
}

func (s *referenceScanner) scanBGP4MP() {
	if err := bgp.DecodeUpdate(&s.upd, s.b4mp.Data, s.b4mp.FourByte); err != nil {
		s.quarantineDecode(err)
		return
	}
	if s.upd.HasLoop() {
		s.stats.DropLoop++
		return
	}
	for _, p := range s.upd.Announced {
		if !prefixOK(p) {
			s.stats.DropPrefixLen++
			continue
		}
		// Single-prefix view so origin counting sees each prefix once.
		s.observePath(s.onePrefix(p), &s.upd)
	}
}

// Stats returns the counters accumulated so far. It is valid mid-scan —
// the observability hook the pipeline uses to publish per-day deltas
// (and progress reporters use to compute records/s) without waiting for
// Finish. The scanner is single-goroutine, so callers sampling from
// another goroutine must read through the pipeline's metrics registry,
// not this method.
func (s *referenceScanner) Stats() Stats { return s.stats }

// EndDay commits the day's visibility decisions into the per-ASN runs.
func (s *referenceScanner) EndDay() error {
	if !s.inDay {
		return fmt.Errorf("bgpscan: EndDay without BeginDay")
	}
	s.inDay = false
	s.end = s.curDay
	d := s.curDay
	for a, mask := range s.dayPeers {
		if popcount(mask) < s.minPeers {
			s.stats.DropLowVis++
			continue
		}
		b := s.building[a]
		if b == nil {
			b = &refBuilder{}
			s.building[a] = b
		}
		if n := len(b.days); n > 0 && b.days[n-1].End+1 == d {
			b.days[n-1].End = d
		} else {
			b.days = append(b.days, intervals.Interval{Start: d, End: d})
		}
		if set := s.dayOrigin[a]; set != nil && set.count() > 0 {
			count := set.count()
			sig := set.sig()
			if n := len(b.originDays); n > 0 && b.originDays[n-1].End+1 == d {
				b.originDays[n-1].End = d
			} else {
				b.originDays = append(b.originDays, intervals.Interval{Start: d, End: d})
			}
			if n := len(b.prefixRuns); n > 0 && b.prefixRuns[n-1].To+1 == d &&
				b.prefixRuns[n-1].Count == count && b.prefixRuns[n-1].Sig == sig {
				b.prefixRuns[n-1].To = d
			} else {
				b.prefixRuns = append(b.prefixRuns, PrefixRun{From: d, To: d, Count: count, Sig: sig})
			}
		}
	}
	return nil
}

// Finish returns the accumulated activity. The scanner must not be used
// afterwards.
func (s *referenceScanner) Finish() *Activity { return s.finish(false) }

// TakePartial returns the activity of one shard of a day-sharded scan.
// Unlike Finish it keeps ASNs that never passed the visibility threshold
// in this shard: their upstream counts may combine with another shard's
// visible days, so the invisible-ASN drop must happen on the union (see
// MergeActivities), not per shard. Unlike Scanner's, the reference
// scanner must not be used afterwards.
func (s *referenceScanner) TakePartial() *Activity { return s.finish(true) }

func (s *referenceScanner) finish(keepInvisible bool) *Activity {
	act := &Activity{
		Start: s.start,
		End:   s.end,
		ASNs:  make(map[asn.ASN]*ASNActivity, len(s.building)),
		Stats: s.stats,
	}
	for a, b := range s.building {
		if len(b.days) == 0 && !keepInvisible {
			continue // upstream bookkeeping only; never passed visibility
		}
		act.ASNs[a] = &ASNActivity{
			Days:       intervals.Set(b.days),
			OriginDays: intervals.Set(b.originDays),
			PrefixRuns: b.prefixRuns,
			Upstreams:  b.upstreams,
		}
	}
	s.building = nil
	return act
}

// onePrefix wraps a single prefix in the scanner's reusable buffer.
func (s *referenceScanner) onePrefix(p netip.Prefix) []netip.Prefix {
	s.one[0] = p
	return s.one[:]
}
