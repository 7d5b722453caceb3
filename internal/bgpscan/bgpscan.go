// Package bgpscan turns raw BGP data into per-ASN daily activity — this
// project's replacement for the CAIDA BGPStream stage of the paper's
// pipeline (§3.2). It consumes either MRT archives (TABLE_DUMP_V2 RIB
// dumps and BGP4MP update dumps) or pre-parsed route observations, and
// applies the paper's sanitization:
//
//   - IPv4 prefixes outside /8../24 and IPv6 prefixes outside /8../64 are
//     discarded (they should not propagate globally);
//   - paths containing loops are discarded (misconfigurations);
//   - an ASN counts as active on a day only when strictly more than one
//     distinct peer AS shares paths containing it that day.
//
// Activity is accumulated as day intervals per ASN, plus the daily count
// of distinct prefixes each ASN originates (the series behind Figure 8).
//
// A RIB dump is mostly repetition: a few thousand distinct attribute
// blocks carry a day's routes, and nearly all of them were there the day
// before. The scanner therefore keys its RIB path on the raw attribute
// bytes (attrTable): a block is decoded, loop-checked and folded into the
// day's peer masks once per day, and every further route carrying it
// costs a lookup, a counter and at most one prefix-set insert. The table
// is cross-day state, a cache of decode outcomes — an earlier day's block
// is applied to today when, and only if, one of today's routes carries
// it, at that route's position in the stream — so a day's result still
// depends on that day's input alone, and day-sharded scans merge exactly
// (MergeActivities). It holds a small multiple of one day's blocks,
// copies what it keeps, and compares bytes, never just hashes. All
// per-ASN state, for RIB entries, BGP4MP messages and ObserveRoutes
// alike, lives in slices indexed by a dense scanner-local ASN id.
package bgpscan

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"net/netip"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/dates"
	"parallellives/internal/grow"
	"parallellives/internal/intervals"
	"parallellives/internal/mrt"
)

// Limits for globally propagated prefixes (§3.2).
const (
	MinV4Bits = 8
	MaxV4Bits = 24
	MinV6Bits = 8
	MaxV6Bits = 64
)

// MinPeerVisibility is the paper's default visibility threshold: strictly
// more than one peer.
const MinPeerVisibility = 2

// Stats counts the scanner's processing and sanitization outcomes.
type Stats struct {
	RIBRecords     int64
	UpdateMessages int64
	Routes         int64 // observations accepted into the day state
	DropPrefixLen  int64
	DropLoop       int64
	DropMalformed  int64
	DropLowVis     int64 // ASN-days rejected by the visibility threshold

	// QuarantinedTruncated counts records (RIB entries / update messages)
	// skipped because their bytes ended early — the cut-transfer damage
	// class, kept separate from generic malformedness so a Health report
	// can reconcile it against known archive dirt.
	QuarantinedTruncated int64
	// QuarantinedTails counts archives abandoned mid-stream on a framing
	// error (an interrupted transfer chopping the final record). The
	// records before the cut are kept; the day survives.
	QuarantinedTails int64
}

// PrefixRun is a run of days over which an origin announced a constant
// set of distinct prefixes: Count prefixes whose order-independent
// signature is Sig. The signature lets analyses distinguish "same number
// of prefixes" from "same prefixes" — the prefix-aware lifetime
// refinement the paper's §8 suggests.
type PrefixRun struct {
	From, To dates.Day
	Count    int
	Sig      uint64
}

// ASNActivity is one ASN's observable footprint.
type ASNActivity struct {
	// Days are the days the ASN passed the visibility threshold.
	Days intervals.Set
	// PrefixRuns compress the daily distinct-prefix origination counts.
	PrefixRuns []PrefixRun
	// Upstreams counts, for each neighbor AS observed immediately before
	// this ASN as an origin, the number of sanitized routes carrying
	// that adjacency. The §6.4 misconfiguration classifier and the
	// §6.1.2 squat analysis both key on these adjacencies.
	Upstreams map[asn.ASN]int64
	// OriginDays are the visible days on which the ASN actually
	// originated prefixes (as opposed to appearing only in transit) —
	// the §9 origination/transit role split.
	OriginDays intervals.Set
}

// Activity is the scan result.
type Activity struct {
	Start, End dates.Day
	ASNs       map[asn.ASN]*ASNActivity
	Stats      Stats
}

// ActiveOn reports whether an ASN was active (visible) on day d.
func (a *Activity) ActiveOn(x asn.ASN, d dates.Day) bool {
	aa := a.ASNs[x]
	return aa != nil && aa.Days.Contains(d)
}

// Scanner accumulates daily BGP activity. Use BeginDay / Observe (or
// ObserveMRT) / EndDay for each day in order, then Finish.
type Scanner struct {
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

	// Every ASN the scanner meets on a sanitized path gets a dense
	// scanner-local id; all per-ASN state is slices indexed by it, grown
	// together in idOf. The ids never reach an Activity: Finish translates
	// back through asns, so they carry no meaning across scanners.
	ids  map[asn.ASN]uint32
	asns []asn.ASN

	// Per-day state. peers[id] is the set of distinct peer ASes that shared
	// a path containing the ASN today (a bitmask over peerIdx, whose bits
	// are handed out per day), origin[id] the distinct prefixes it
	// originated today, touched the ids with a non-zero mask — what EndDay
	// walks and BeginDay zeroes, so a day costs its own ASNs, not all ids.
	peerIdx map[asn.ASN]int
	peers   []uint64
	origin  []originSet
	touched []uint32

	// Accumulated per-ASN runs.
	built []builder

	// Interned RIB attribute blocks (see attrTable); today lists the ones
	// folded into the day's state so far.
	table  attrTable
	today  []uint32
	tstats TableStats
	seed   maphash.Seed
	record uint64 // RIB records scanned today: the originSet.record stamp

	// Reusable decode scratch.
	keep    []netip.Prefix
	flat    []asn.ASN
	pathIDs []uint32
	upd     bgp.Update
	tbl     mrt.PeerIndexTable
	rib     mrt.RIBRecord
	b4mp    mrt.BGP4MPMessage
}

type builder struct {
	days       []intervals.Interval
	originDays []intervals.Interval
	prefixRuns []PrefixRun
	upstreams  map[asn.ASN]int64
}

// originSetSpill is the size at which an origin's per-day prefix set
// migrates from the linear-scanned slice to a map. Almost every origin
// announces far fewer distinct prefixes per day, so the slice path — one
// cache line, no hashing — is the common case.
const originSetSpill = 64

// originSet accumulates the distinct prefixes one origin announced on one
// day, as per-prefix FNV-1a hashes: a small linearly-deduplicated slice,
// spilling to a map above originSetSpill. Distinct-prefix counting and
// the order-independent XOR signature both work on the hashes, so the
// prefixes themselves never need to be retained per day. A set lives at
// its ASN's id for the scanner's lifetime and keeps its slice capacity
// from day to day, so steady-state days allocate nothing.
type originSet struct {
	hs []uint64
	m  map[uint64]struct{}
	// record is the day's RIB record (Scanner.record) that last inserted
	// its prefix: the other entries of that record naming this origin skip
	// the insert instead of rescanning hs for a hash that is there.
	record uint64
}

// add inserts the prefix hash h if it is not already present.
func (s *originSet) add(h uint64) {
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
func (s *originSet) count() int {
	if s.m != nil {
		return len(s.m)
	}
	return len(s.hs)
}

// sig returns the order-independent XOR signature of the set.
func (s *originSet) sig() uint64 {
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

// reset readies the set for the next day, keeping the slice capacity and
// dropping any spill map (spilling is rare; holding the buckets for every
// set would pin far more memory than rebuilding the odd map).
func (s *originSet) reset() {
	s.hs = s.hs[:0]
	s.m = nil
	s.record = 0
}

// NewScanner returns a scanner with the paper's default visibility
// threshold (>1 peer).
func NewScanner() *Scanner { return NewScannerWithVisibility(MinPeerVisibility) }

// NewScannerWithVisibility returns a scanner requiring at least minPeers
// distinct peer ASes per day. minPeers=1 reproduces the naive pipeline
// the paper warns against (the ablation benchmark exercises it).
func NewScannerWithVisibility(minPeers int) *Scanner {
	if minPeers < 1 {
		minPeers = 1
	}
	return &Scanner{
		minPeers: minPeers,
		ids:      make(map[asn.ASN]uint32),
		peerIdx:  make(map[asn.ASN]int),
		seed:     maphash.MakeSeed(),
		start:    dates.None,
		end:      dates.None,
	}
}

// idOf returns the dense id of a, registering it on first sight. It may
// grow every per-ASN slice: pointers into them do not survive it.
func (s *Scanner) idOf(a asn.ASN) uint32 {
	id, ok := s.ids[a]
	if !ok {
		id = uint32(len(s.asns))
		s.ids[a] = id
		s.asns = grow.Append(s.asns, a)
		s.peers = grow.Append(s.peers, 0)
		s.origin = grow.Append(s.origin, originSet{})
		s.built = grow.Append(s.built, builder{})
	}
	return id
}

// BeginDay opens a new day; days must be fed in ascending order.
func (s *Scanner) BeginDay(d dates.Day) error {
	if s.inDay {
		return fmt.Errorf("bgpscan: BeginDay(%v) before EndDay", d)
	}
	if s.end != dates.None && d <= s.end {
		return fmt.Errorf("bgpscan: day %v not after %v", d, s.end)
	}
	if s.start == dates.None {
		s.start = d
	}
	s.curDay = d
	s.inDay = true
	clear(s.peerIdx)
	for _, id := range s.touched {
		s.peers[id] = 0
		s.origin[id].reset()
	}
	s.touched = s.touched[:0]
	s.record = 0
	if 2*len(s.table.ents) > 3*len(s.today) { // see attrTable
		s.table.compact(s.end)
		s.tstats.Compactions++
	}
	s.today = s.today[:0]
	return nil
}

// peerBit registers (or finds) the bitmask bit for a peer AS. Bits are
// assigned per day (peerIdx is cleared in BeginDay), so a day's
// visibility mask depends only on that day's observations — the
// self-containment property that lets a day range be sharded across
// scanners and merged back exactly.
func (s *Scanner) peerBit(peer asn.ASN) uint64 {
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

// prefixOK applies the propagation-length sanitization.
func prefixOK(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() >= MinV4Bits && p.Bits() <= MaxV4Bits
	}
	return p.Bits() >= MinV6Bits && p.Bits() <= MaxV6Bits
}

// keepOK filters prefixes through the length sanitization into the
// scanner's reusable buffer, counting the drops.
func (s *Scanner) keepOK(prefixes []netip.Prefix) []netip.Prefix {
	s.keep = s.keep[:0]
	for _, p := range prefixes {
		if prefixOK(p) {
			s.keep = append(s.keep, p)
		} else {
			s.stats.DropPrefixLen++
		}
	}
	return s.keep
}

// pathClass is what sanitization made of one path.
type pathClass uint8

const (
	pathOK        pathClass = iota
	pathEmpty               // decodes, but names no peer: contributes nothing, counts nothing
	pathLoop                // Stats.DropLoop
	pathTruncated           // Stats.QuarantinedTruncated
	pathMalformed           // Stats.DropMalformed
)

// route is a path reduced to what the day's state takes from it; the
// path itself travels beside it as ASN ids. Everything but class is
// meaningful only under pathOK.
type route struct {
	class       pathClass
	hasOrigin   bool    // false when the path ends in an AS_SET
	hasUpstream bool    // false when the path is all origin
	peer        asn.ASN // first AS: the collector peer that shared the path
	origin      uint32  // the origin's id
	upstream    asn.ASN // the neighbour before the origin's (prepended) run
}

// errClass classifies a decode error: bytes-ran-out damage is
// truncation, anything else generic malformedness.
func errClass(err error) pathClass {
	if errors.Is(err, mrt.ErrTruncated) || errors.Is(err, bgp.ErrTruncated) {
		return pathTruncated
	}
	return pathMalformed
}

// drop counts one record or route lost to class c. Skipping (rather than
// failing the day) matches the seed behaviour.
func (s *Scanner) drop(c pathClass) {
	switch c {
	case pathLoop:
		s.stats.DropLoop++
	case pathTruncated:
		s.stats.QuarantinedTruncated++
	case pathMalformed:
		s.stats.DropMalformed++
	}
}

// classify sanitizes a decoded path and reduces it to a route, leaving
// the path's ASN ids in s.pathIDs (empty unless the class is pathOK).
func (s *Scanner) classify(u *bgp.Update) route {
	s.pathIDs = s.pathIDs[:0]
	if u.HasLoop() {
		return route{class: pathLoop}
	}
	peer, ok := u.FirstAS()
	if !ok {
		return route{class: pathEmpty}
	}
	s.flat = u.FlatPath(s.flat[:0])
	for _, a := range s.flat {
		s.pathIDs = append(s.pathIDs, s.idOf(a))
	}
	r := route{class: pathOK, peer: peer}
	if origin, ok := u.OriginAS(); ok {
		r.hasOrigin, r.origin = true, s.pathIDs[len(s.pathIDs)-1]
		for i := len(s.flat) - 1; i >= 0; i-- {
			if s.flat[i] != origin {
				r.hasUpstream, r.upstream = true, s.flat[i]
				break
			}
		}
	}
	return r
}

// markPath ORs the peer's bit into every ASN on the path. Repeating it
// for the same peer and path within a day changes nothing, which is what
// lets an interned block do it once per day.
func (s *Scanner) markPath(peer asn.ASN, path []uint32) {
	bit := s.peerBit(peer)
	for _, id := range path {
		if s.peers[id] == 0 {
			s.touched = grow.Append(s.touched, id)
		}
		s.peers[id] |= bit
	}
}

// addUpstream credits n routes to the origin←upstream adjacency.
func (s *Scanner) addUpstream(origin uint32, upstream asn.ASN, n int64) {
	b := &s.built[origin]
	if b.upstreams == nil {
		b.upstreams = make(map[asn.ASN]int64, 2)
	}
	b.upstreams[upstream] += n
}

// observe folds the sanitized path classify just reduced to r into the
// day, carrying prefixes (already length-checked) and counted as n routes.
func (s *Scanner) observe(r route, prefixes []netip.Prefix, n int64) {
	s.markPath(r.peer, s.pathIDs)
	if r.hasOrigin {
		set := &s.origin[r.origin]
		for _, p := range prefixes {
			set.add(prefixHash(p))
		}
		if r.hasUpstream {
			s.addUpstream(r.origin, r.upstream, n)
		}
	}
	s.stats.Routes += n
}

// Observe feeds one route observation: a path for a prefix shared by a
// peer AS. The path must start at the peer.
func (s *Scanner) Observe(prefix netip.Prefix, path []asn.ASN) {
	s.ObserveRoutes([]netip.Prefix{prefix}, path)
}

// ObserveRoutes feeds one path carrying several prefixes — the grouped
// form the collectors produce. Prefixes failing the length sanitization
// are dropped individually; the path contributes activity if at least
// one prefix survives.
func (s *Scanner) ObserveRoutes(prefixes []netip.Prefix, path []asn.ASN) {
	if !s.inDay || len(path) == 0 {
		return
	}
	kept := s.keepOK(prefixes)
	if len(kept) == 0 {
		return
	}
	s.upd.Reset()
	s.upd.Path = append(s.upd.Path[:0], bgp.Segment{Type: bgp.SegmentSequence, ASNs: path})
	r := s.classify(&s.upd)
	if r.class != pathOK {
		s.drop(r.class)
		return
	}
	s.observe(r, kept, 1)
}

// ObserveMRT feeds one MRT archive (an io-free byte slice) for the
// current day: TABLE_DUMP_V2 RIB dumps and/or BGP4MP update dumps. Records
// are decoded in place, and nothing of data is referenced once it returns:
// the archive is the caller's to reuse or free.
func (s *Scanner) ObserveMRT(data []byte) error {
	if !s.inDay {
		return fmt.Errorf("bgpscan: ObserveMRT outside a day")
	}
	defer func() { // the decode scratch's views into data
		clear(s.rib.Entries[:cap(s.rib.Entries)])
		s.b4mp.Data = nil
	}()
	havePeers := false
	for {
		h, body, rest, err := mrt.NextRecord(data)
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
		data = rest
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
					s.drop(errClass(err))
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
				s.drop(errClass(err))
				continue
			}
			s.stats.UpdateMessages++
			s.scanBGP4MP()
		}
	}
	return nil
}

// scanRIBRecord credits one route per entry of the decoded RIB record.
// Everything an entry's path contributes was done when its attribute
// block entered today's table; what is left per entry is the route
// count, the block's hit counter, and the record's prefix in the
// origin's set — once per record and origin, not once per entry.
func (s *Scanner) scanRIBRecord() {
	if !prefixOK(s.rib.Prefix) {
		s.stats.DropPrefixLen++
		return
	}
	h := prefixHash(s.rib.Prefix)
	s.record++
	for i := range s.rib.Entries {
		e := s.intern(s.rib.Entries[i].Attrs)
		if e.class != pathOK {
			s.drop(e.class)
			continue
		}
		e.hits++
		if e.hasOrigin {
			if set := &s.origin[e.origin]; set.record != s.record {
				set.record = s.record
				set.add(h)
			}
		}
		s.stats.Routes++
	}
}

// intern returns the table entry for a RIB attribute block, valid until
// the next call. A block not yet folded in today is decoded and
// sanitized — or, if an earlier day left it in the table, taken from
// there — and its path is folded into the day's state on the spot: the
// first route carrying a block registers its peer's bit exactly when the
// uninterned scan would have, so bits are assigned in the same order.
func (s *Scanner) intern(attrs []byte) *attrEntry {
	h := uint32(maphash.Bytes(s.seed, attrs))
	t := &s.table
	if i := t.find(h, attrs); i >= 0 {
		e := &t.ents[i]
		if e.day != s.curDay {
			e.day = s.curDay
			s.today = grow.Append(s.today, uint32(i))
			s.tstats.Carried++
			if e.class == pathOK {
				s.markPath(e.peer, t.pathOf(e))
			}
		}
		return e
	}
	var r route
	var path []uint32
	s.upd.Reset()
	if err := bgp.DecodeAttrs(&s.upd, attrs, true); err != nil {
		r = route{class: errClass(err)}
	} else {
		r = s.classify(&s.upd)
		path = s.pathIDs
	}
	s.tstats.Decoded++
	if r.class == pathOK {
		s.markPath(r.peer, path)
	}
	if len(t.arena)+len(attrs) > math.MaxUint32 { // past the offsets (paths is shorter)
		s.flushHits() // start over; blocks met again today re-mark marked paths
		t.compact(dates.None)
		s.today = s.today[:0]
	}
	s.today = grow.Append(s.today, uint32(len(t.ents)))
	return t.add(h, attrs, path, r, s.curDay)
}

// flushHits moves today's per-block route counts into the origins'
// upstream counters.
func (s *Scanner) flushHits() {
	for _, i := range s.today {
		e := &s.table.ents[i]
		if e.hits > 0 && e.hasUpstream {
			s.addUpstream(e.origin, e.upstream, e.hits)
		}
		e.hits = 0
	}
}

func (s *Scanner) scanBGP4MP() {
	if err := bgp.DecodeUpdate(&s.upd, s.b4mp.Data, s.b4mp.FourByte); err != nil {
		s.drop(errClass(err))
		return
	}
	r := s.classify(&s.upd)
	if r.class == pathLoop {
		s.drop(r.class)
		return
	}
	// Every surviving prefix is a route of its own, so origin counting
	// sees each prefix once and the adjacency once per prefix.
	if kept := s.keepOK(s.upd.Announced); len(kept) > 0 && r.class == pathOK {
		s.observe(r, kept, int64(len(kept)))
	}
}

// TableStats counts the attribute table's blocks decoded, blocks carried
// over from an earlier day, and compactions: unlike Stats, which
// checkpoints persist, they depend on where a scan started.
type TableStats struct{ Decoded, Carried, Compactions int64 }

// TableStats returns the table counters accumulated so far.
func (s *Scanner) TableStats() TableStats { return s.tstats }

// Stats returns the counters accumulated so far. It is valid mid-scan —
// the observability hook the pipeline uses to publish per-day deltas
// (and progress reporters use to compute records/s) without waiting for
// Finish. The scanner is single-goroutine, so callers sampling from
// another goroutine must read through the pipeline's metrics registry,
// not this method.
func (s *Scanner) Stats() Stats { return s.stats }

// EndDay commits the day's visibility decisions into the per-ASN runs.
func (s *Scanner) EndDay() error {
	if !s.inDay {
		return fmt.Errorf("bgpscan: EndDay without BeginDay")
	}
	s.inDay = false
	s.end = s.curDay
	d := s.curDay
	s.flushHits()
	for _, id := range s.touched {
		if popcount(s.peers[id]) < s.minPeers {
			s.stats.DropLowVis++
			continue
		}
		b := &s.built[id]
		if n := len(b.days); n > 0 && b.days[n-1].End+1 == d {
			b.days[n-1].End = d
		} else {
			b.days = append(b.days, intervals.Interval{Start: d, End: d})
		}
		if set := &s.origin[id]; set.count() > 0 {
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
func (s *Scanner) Finish() *Activity { return s.finish(false) }

// TakePartial returns the activity, Stats included, of the days scanned
// since the last take. Unlike Finish it keeps ASNs that never passed the
// visibility threshold: their upstream counts may combine with other
// days' visible ones, so the invisible-ASN drop happens on the union
// (see MergeActivities). The scanner keeps its ids and table and scans on.
func (s *Scanner) TakePartial() *Activity {
	act := s.finish(true)
	s.stats, s.start = Stats{}, dates.None
	return act
}

func (s *Scanner) finish(keepInvisible bool) *Activity {
	s.flushHits() // a day left open still owes its adjacencies
	act := &Activity{
		Start: s.start,
		End:   s.end,
		ASNs:  make(map[asn.ASN]*ASNActivity, len(s.built)),
		Stats: s.stats,
	}
	for id := range s.built {
		b := &s.built[id]
		// An ASN with no visible day is upstream bookkeeping at most;
		// one with neither was only ever seen below the threshold.
		if len(b.days) == 0 && (!keepInvisible || b.upstreams == nil) {
			continue
		}
		act.ASNs[s.asns[id]] = &ASNActivity{
			Days:       intervals.Set(b.days),
			OriginDays: intervals.Set(b.originDays),
			PrefixRuns: b.prefixRuns,
			Upstreams:  b.upstreams,
		}
	}
	clear(s.built) // the activity owns what the builders held
	return act
}

// add accumulates another shard's counters — the stats half of the
// MergeActivities reduce.
func (st *Stats) add(o Stats) {
	st.RIBRecords += o.RIBRecords
	st.UpdateMessages += o.UpdateMessages
	st.Routes += o.Routes
	st.DropPrefixLen += o.DropPrefixLen
	st.DropLoop += o.DropLoop
	st.DropMalformed += o.DropMalformed
	st.DropLowVis += o.DropLowVis
	st.QuarantinedTruncated += o.QuarantinedTruncated
	st.QuarantinedTails += o.QuarantinedTails
}

// appendCoalesced appends src's day intervals to dst, merging across the
// shard boundary with exactly EndDay's rule (consecutive days join).
// Within each input the intervals are already maximal, so only boundary
// pairs can actually coalesce.
func appendCoalesced(dst, src intervals.Set) intervals.Set {
	for _, iv := range src {
		if n := len(dst); n > 0 && dst[n-1].End+1 == iv.Start {
			dst[n-1].End = iv.End
		} else {
			dst = append(dst, iv)
		}
	}
	return dst
}

// appendRuns appends src's prefix runs to dst, coalescing across the
// shard boundary under EndDay's rule: consecutive days with identical
// count and signature extend the previous run.
func appendRuns(dst, src []PrefixRun) []PrefixRun {
	for _, r := range src {
		if n := len(dst); n > 0 && dst[n-1].To+1 == r.From &&
			dst[n-1].Count == r.Count && dst[n-1].Sig == r.Sig {
			dst[n-1].To = r.To
		} else {
			dst = append(dst, r)
		}
	}
	return dst
}

// Absorb folds a later partial activity (a TakePartial result whose
// days all follow the receiver's) into the receiver in place: day and
// origin-day intervals concatenate with boundary coalescing, prefix
// runs coalesce when count and signature match across the boundary, and
// upstream counts and stats sum. Invisible ASNs are kept — Absorb is
// the carry-state append of an incremental (day-at-a-time) scan, where
// an ASN invisible so far may still combine with a later visible day;
// the invisible drop happens once, in Finalize. Absorbing each shard of
// a day-sharded scan in ascending day order and then finalizing is
// exactly MergeActivities.
func (out *Activity) Absorb(p *Activity) {
	if p == nil {
		return
	}
	out.Stats.add(p.Stats)
	if p.Start != dates.None && (out.Start == dates.None || p.Start < out.Start) {
		out.Start = p.Start
	}
	if p.End != dates.None && (out.End == dates.None || p.End > out.End) {
		out.End = p.End
	}
	for a, aa := range p.ASNs {
		m := out.ASNs[a]
		if m == nil {
			m = &ASNActivity{}
			out.ASNs[a] = m
		}
		m.Days = appendCoalesced(m.Days, aa.Days)
		m.OriginDays = appendCoalesced(m.OriginDays, aa.OriginDays)
		m.PrefixRuns = appendRuns(m.PrefixRuns, aa.PrefixRuns)
		if len(aa.Upstreams) > 0 {
			if m.Upstreams == nil {
				m.Upstreams = make(map[asn.ASN]int64, len(aa.Upstreams))
			}
			for up, n := range aa.Upstreams {
				m.Upstreams[up] += n
			}
		}
	}
}

// NewPartial returns an empty activity ready to Absorb partial results —
// the zero carry-state of an incremental scan.
func NewPartial() *Activity {
	return &Activity{
		Start: dates.None,
		End:   dates.None,
		ASNs:  make(map[asn.ASN]*ASNActivity),
	}
}

// Finalize reproduces Finish's invisible-ASN filtering on an absorbed
// union without mutating it: ASNs that never passed the visibility
// threshold on any absorbed day carry upstream bookkeeping only and are
// excluded from the returned view. The result shares ASNActivity values
// with the input, so the carry may keep absorbing later days after a
// finalized view has been taken from it — the property the streaming
// tailer's snapshot-per-day publishing relies on.
func Finalize(a *Activity) *Activity {
	out := &Activity{
		Start: a.Start,
		End:   a.End,
		ASNs:  make(map[asn.ASN]*ASNActivity, len(a.ASNs)),
		Stats: a.Stats,
	}
	for x, m := range a.ASNs {
		if len(m.Days) > 0 {
			out.ASNs[x] = m
		}
	}
	return out
}

// MergeActivities combines the TakePartial results of consecutive day
// shards — given in ascending day order — into the activity a single
// scanner fed the whole range would have produced. Day and origin-day
// intervals concatenate with boundary coalescing, prefix runs coalesce
// when count and signature match across the boundary, upstream counts
// and stats sum, and ASNs that never passed the visibility threshold in
// any shard are dropped at the end — reproducing Finish's filtering on
// the union. Each day is self-contained (per-day peer bitmaps), so the
// merged result is bit-for-bit the sequential one.
func MergeActivities(parts ...*Activity) *Activity {
	out := NewPartial()
	for _, p := range parts {
		out.Absorb(p)
	}
	for a, m := range out.ASNs {
		if len(m.Days) == 0 {
			delete(out.ASNs, a)
		}
	}
	return out
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// prefixHash is a per-prefix FNV-1a hash over Addr().As16() then
// Bits(). Checkpoints persist PrefixRun.Sig, which folds it, so its
// values are pinned (TestPrefixHashPinned).
func prefixHash(p netip.Prefix) uint64 {
	h := uint64(14695981039346656037)
	if a := p.Addr(); a.Is4() {
		h = fnv4Mapped
		for _, b := range a.As4() {
			h = (h ^ uint64(b)) * 1099511628211
		}
	} else {
		for _, b := range a.As16() {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	return (h ^ uint64(p.Bits())) * 1099511628211
}

// fnv4Mapped is prefixHash's state after the 12 bytes every IPv4
// address's As16 form starts with (10 × 0x00, 2 × 0xff).
const fnv4Mapped = 0x540b81da1cc1b60b
