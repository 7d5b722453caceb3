// Package collector simulates the RouteViews / RIPE RIS collection
// infrastructure over the generated world: a set of collectors, each with
// full-feed peer ASes, that observe the announcements implied by the
// world's ground-truth BGP segments and export them as daily MRT archives
// (a TABLE_DUMP_V2 RIB dump per collector plus BGP4MP update dumps), the
// same shape the paper's pipeline consumes via BGPStream (§3.2).
//
// The infrastructure also exposes the observations directly (pre-wire).
// Encoding them (encode.go) is append-style over per-iterator scratch
// and a prefix table the iterator keeps across days (table.go), and
// costs about 0.6 ms a day at the default scale (41 MB over 91 days in
// 0.05–0.06 s on one core of the 2-core box, 700–850 MB/s), allocating
// only the archives it returns — nothing when AppendMRT is handed the
// previous day's.
package collector

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/grow"
	"parallellives/internal/intervals"
	"parallellives/internal/mrt"
	"parallellives/internal/worldsim"
)

// Observation is one peer's view of one origin's routes on one day: all
// prefixes sharing the same AS path are grouped, which keeps the
// observation stream (and the scanner's per-day work) proportional to
// routes rather than to prefixes.
type Observation struct {
	Collector int
	Peer      int // peer index within the collector
	Prefixes  []netip.Prefix
	Path      []asn.ASN
	// ids[i] is Prefixes[i]'s id in the iterator's prefix table.
	ids []int32
}

// Collector describes one simulated collector.
type Collector struct {
	Name  string
	ID    [4]byte
	Peers []mrt.Peer
}

// Infrastructure is the simulated collection infrastructure.
type Infrastructure struct {
	world      *worldsim.World
	collectors []Collector
	segments   []worldsim.Segment // sorted by start (worldsim guarantees it)
	seed       int64
	outages    []outageCell // by segment; see outagesOf
}

type outageCell struct {
	once sync.Once
	set  intervals.Set
}

// New builds the infrastructure for a world using the world's collector
// configuration.
func New(w *worldsim.World) *Infrastructure {
	inf := &Infrastructure{world: w, segments: w.Segments, seed: w.Config.Seed,
		outages: make([]outageCell, len(w.Segments))}
	nPeers := w.Config.Collectors * w.Config.PeersPerCollector
	if nPeers > len(w.TransitASNs)-1 {
		nPeers = len(w.TransitASNs) - 1
	}
	peerIdx := 0
	for c := 0; c < w.Config.Collectors; c++ {
		col := Collector{
			Name: fmt.Sprintf("rrc%02d", c),
			ID:   [4]byte{198, 51, 100, byte(c + 1)},
		}
		for p := 0; p < w.Config.PeersPerCollector && peerIdx < nPeers; p++ {
			a := w.TransitASNs[peerIdx]
			col.Peers = append(col.Peers, mrt.Peer{
				BGPID: [4]byte{192, 0, 2, byte(peerIdx + 1)},
				Addr:  netip.AddrFrom4([4]byte{192, 0, 2, byte(peerIdx + 1)}),
				AS:    a,
			})
			peerIdx++
		}
		inf.collectors = append(inf.collectors, col)
	}
	return inf
}

// Collectors returns the simulated collectors.
func (inf *Infrastructure) Collectors() []Collector { return inf.collectors }

// hash64 is a seeded FNV-1a over (asn, day, salt) used for deterministic
// per-day jitter without shared RNG state.
func (inf *Infrastructure) hash64(a asn.ASN, d dates.Day, salt uint32) uint64 {
	h := uint64(14695981039346656037) ^ uint64(inf.seed)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(v & 0xff)
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint32(a))
	mix(uint32(d))
	mix(salt)
	return h
}

// outageSchedule derives a segment's transient disappearances — the
// per-ASN activity gaps behind Figure 3's CDF. Two populations exist:
// frequent 1–3 day flaps and rarer 4–28 day outages (both shorter than
// the 30-day lifetime timeout, which must bridge them; the mid-length
// ones are exactly what breaks apart under the 15-day timeout of the
// paper's sensitivity analysis). rng is re-seeded, so it draws what a
// fresh rand.New(rand.NewSource(seed)) would, without allocating one.
func (inf *Infrastructure) outageSchedule(seg *worldsim.Segment, rng *rand.Rand) intervals.Set {
	rng.Seed(int64(inf.hash64(seg.ASN, seg.Span.Start, 0x0bad)))
	var out []intervals.Interval
	cur := seg.Span.Start
	for {
		// Outage inter-arrival: exponential with a ~2200-day mean.
		cur = cur.AddDays(1 + int(rng.ExpFloat64()*2200))
		if cur > seg.Span.End {
			break
		}
		dur := 1 + rng.Intn(3)
		if rng.Float64() < 0.45 {
			dur = 4 + rng.Intn(25)
		}
		end := dates.Min(cur.AddDays(dur-1), seg.Span.End)
		out = append(out, intervals.New(cur, end))
		cur = end.AddDays(1)
	}
	return intervals.Normalize(out)
}

// outagesOf returns segment si's outage schedule, derived once for all
// iterators: seeding its generator costs more than rendering the segment
// for a day, and every day-shard's iterator meets the same segments. The
// set is shared, so read-only; rng is the calling iterator's own.
func (inf *Infrastructure) outagesOf(si int, rng *rand.Rand) intervals.Set {
	c := &inf.outages[si]
	c.once.Do(func() { c.set = inf.outageSchedule(&inf.segments[si], rng) })
	return c.set
}

const prefixBitsDefault = 24

// prefixFor derives the i-th IPv4 prefix of an origin deterministically.
func prefixFor(owner asn.ASN, i int, bits int) netip.Prefix {
	v := uint32(owner)*2654435761 + uint32(i)*0x00010003 + 0x9e3779b9
	o1 := byte(1 + (v>>24)%126) // 1..126, stays within globally-routable-looking space
	o2 := byte(v >> 16)
	o3 := byte(v >> 8)
	addr := netip.AddrFrom4([4]byte{o1, o2, o3, 0})
	p, err := addr.Prefix(bits)
	if err != nil {
		panic(err)
	}
	return p
}

// prefix6For derives an IPv6 prefix for an origin.
func prefix6For(owner asn.ASN, i int) netip.Prefix {
	v := uint32(owner)*2654435761 + uint32(i)*40503
	var a [16]byte
	a[0], a[1] = 0x20, 0x01
	a[2], a[3] = 0x0d, 0xb8
	a[4], a[5] = byte(v>>24), byte(v>>16)
	a[6], a[7] = byte(v>>8), byte(v)
	p, err := netip.AddrFrom16(a).Prefix(48)
	if err != nil {
		panic(err)
	}
	return p
}

// appendPath appends the AS path a peer sees for a segment's
// announcements to dst, the origin repeated reps times: the day iterator
// carves every observation's path out of one reused buffer.
func (inf *Infrastructure) appendPath(dst []asn.ASN, seg *worldsim.Segment, reps int, peer asn.ASN, d dates.Day) []asn.ASN {
	dst = append(grow.Room(dst, 3+reps), peer)
	if seg.Upstream != peer && seg.Upstream != seg.ASN {
		// Occasionally route through an extra transit hop.
		if inf.hash64(seg.ASN, d, uint32(peer))%5 == 0 {
			mid := inf.world.TransitASNs[inf.hash64(seg.ASN, d, 7)%uint64(len(inf.world.TransitASNs)-1)]
			if mid != peer && mid != seg.Upstream && mid != seg.ASN {
				dst = append(dst, mid)
			}
		}
		dst = append(dst, seg.Upstream)
	}
	for i := 0; i < reps; i++ {
		dst = append(dst, seg.ASN)
	}
	return dst
}

// prepends is how many times an origin appears at the end of its paths:
// some origins announce with the origin repeated.
func (inf *Infrastructure) prepends(origin asn.ASN) int {
	if inf.hash64(origin, 0, 3)%10 == 0 {
		return 2 + int(inf.hash64(origin, 0, 4)%2)
	}
	return 1
}

// Iter walks the window day by day.
type Iter struct {
	inf  *Infrastructure
	day  dates.Day
	end  dates.Day
	next int // index of first segment not yet activated
	// active segments, compacted lazily.
	active []int
	obs    []Observation
	// segCache holds each active segment's announced prefix set (constant
	// over the segment's life) and its outage schedule.
	segCache map[int]*segState
	// table numbers every prefix of segCache and of the noise rendered
	// since its last reset; unlike the arenas below it lives across days
	// (table.go says why that leaves a day's archives a function of the
	// day alone).
	table prefixTable
	// pathArena, noisePrefixes and noiseIDs back the day's observation
	// paths and noise prefix sets. All reset (len only) at the start of
	// each day: observations are consumed within their day, so the
	// previous day's views are dead by then, and growth mid-day leaves
	// already-taken views pointing at the old backing array, still valid
	// and immutable.
	pathArena     []asn.ASN
	noisePrefixes []netip.Prefix
	noiseIDs      []int32
	// enc is AppendMRT's scratch (encode.go): reset by every call, never
	// reallocated, and never reachable from the archives it returns.
	enc encoder
	// rng is re-seeded for every outage schedule this iterator derives.
	rng *rand.Rand
}

// segState is the cached per-segment rendering state.
type segState struct {
	prefixes []netip.Prefix
	ids      []int32 // prefixes[i]'s id in Iter.table
	outages  intervals.Set
	reps     int // Infrastructure.prepends of the origin
}

// Iter returns a day iterator positioned before the window start.
func (inf *Infrastructure) Iter() *Iter {
	return inf.IterRange(inf.world.Config.Start, inf.world.Config.End)
}

// IterRange returns a day iterator over the window subrange
// [start, end], clamped to the window. A day's state is a pure function
// of the day — segment activation depends only on spans and the
// observation rendering only on (segment, day) — so an IterRange
// iterator yields on each day exactly what the full iterator yields
// there: the property the day-sharded scan relies on.
func (inf *Infrastructure) IterRange(start, end dates.Day) *Iter {
	if start < inf.world.Config.Start {
		start = inf.world.Config.Start
	}
	if end > inf.world.Config.End {
		end = inf.world.Config.End
	}
	return &Iter{
		inf:      inf,
		day:      start.AddDays(-1),
		end:      end,
		segCache: make(map[int]*segState),
		rng:      rand.New(rand.NewSource(0)),
	}
}

// Next advances to the next day; false past the iterator's end.
func (it *Iter) Next() bool {
	it.day = it.day.AddDays(1)
	if it.day > it.end {
		return false
	}
	for it.next < len(it.inf.segments) && it.inf.segments[it.next].Span.Start <= it.day {
		it.active = append(it.active, it.next)
		it.next++
	}
	// Compact expired segments.
	kept := it.active[:0]
	for _, si := range it.active {
		if it.inf.segments[si].Span.End >= it.day {
			kept = append(kept, si)
		} else if st, ok := it.segCache[si]; ok {
			it.table.released += len(st.ids)
			delete(it.segCache, si)
		}
	}
	it.active = kept
	it.obs = it.obs[:0]
	it.pathArena = it.pathArena[:0]
	it.noisePrefixes = it.noisePrefixes[:0]
	it.noiseIDs = it.noiseIDs[:0]
	if it.table.stale() {
		it.rebuildTable()
	}
	it.buildObservations()
	return true
}

// rebuildTable empties the prefix table and numbers the live segments'
// prefixes again, dropping what expired segments (and past days' noise)
// left in it. No observation is live here, so segCache holds the only
// ids there are.
func (it *Iter) rebuildTable() {
	it.table.reset()
	for _, si := range it.active {
		if st, ok := it.segCache[si]; ok {
			st.ids = it.table.internAll(st.ids[:0], st.prefixes)
		}
	}
}

// Day returns the current day.
func (it *Iter) Day() dates.Day { return it.day }

// Observations returns the day's per-peer route observations. The slice
// is reused across Next calls.
func (it *Iter) Observations() []Observation { return it.obs }

// buildObservations renders the active segments into per-peer routes,
// applying visibility classes and outage jitter, and appends the noise
// the sanitizer must reject.
func (it *Iter) buildObservations() {
	inf := it.inf
	d := it.day
	for _, si := range it.active {
		seg := &inf.segments[si]
		if !seg.Span.Contains(d) {
			continue
		}
		if seg.Vis == worldsim.VisNone {
			continue
		}
		st := it.segmentState(si, seg)
		if seg.Kind != worldsim.SegTransit && st.outages.Contains(d) {
			continue
		}
		if len(st.prefixes) == 0 {
			// Pure carriers originate nothing; they appear on paths only
			// as upstreams of their customers.
			continue
		}
		for ci := range inf.collectors {
			col := &inf.collectors[ci]
			for pi := range col.Peers {
				if seg.Vis == worldsim.VisSinglePeer && (ci != 0 || pi != 0) {
					continue
				}
				peerAS := col.Peers[pi].AS
				if peerAS == seg.ASN {
					continue // a peer does not re-learn its own origin
				}
				start := len(it.pathArena)
				it.pathArena = inf.appendPath(it.pathArena, seg, st.reps, peerAS, d)
				it.obs = grow.Append(it.obs, Observation{
					Collector: ci, Peer: pi,
					Prefixes: st.prefixes,
					Path:     it.pathArena[start:len(it.pathArena):len(it.pathArena)],
					ids:      st.ids,
				})
			}
		}
	}
	it.appendNoise()
}

// segmentState returns (building once) a segment's rendering state: the
// prefix set it announces — PrefixCount IPv4 prefixes, from the victim's
// space for squats and MOAS fat-fingers, plus an IPv6 prefix for a share
// of origins — numbered in the iterator's prefix table, its outage
// schedule and its prepend count.
func (it *Iter) segmentState(si int, seg *worldsim.Segment) *segState {
	if st, ok := it.segCache[si]; ok {
		return st
	}
	owner := seg.ASN
	bits := prefixBitsDefault
	if seg.Kind == worldsim.SegDormantSquat {
		// Squatters announce other organizations' idle space in larger
		// blocks (§6.1.2's /16s).
		owner = seg.VictimASN
		bits = 16
	}
	if seg.Kind == worldsim.SegFatFinger && seg.VictimASN != 0 {
		owner = seg.VictimASN
	}
	prefixes := make([]netip.Prefix, 0, seg.PrefixCount+1)
	for i := 0; i < seg.PrefixCount; i++ {
		prefixes = append(prefixes, prefixFor(owner, i, bits))
	}
	if seg.ASN%4 == 0 {
		prefixes = append(prefixes, prefix6For(owner, 0))
	}
	st := &segState{
		prefixes: prefixes,
		ids:      it.table.internAll(make([]int32, 0, len(prefixes)), prefixes),
		outages:  it.inf.outagesOf(si, it.rng),
		reps:     it.inf.prepends(seg.ASN),
	}
	it.segCache[si] = st
	return st
}

// The fixed junk prefixes of appendNoise: a too-long IPv4 prefix (/25..),
// a too-short one and a too-long IPv6 one.
var (
	noiseLong  = netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, 113, 128}), 25)
	noiseShort = netip.PrefixFrom(netip.AddrFrom4([4]byte{12, 0, 0, 0}), 7)
	noiseLong6 = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 2, 0, 3}), 80)
)

// appendNoise adds the daily junk the paper's sanitization discards:
// too-specific and too-broad prefixes, and a looped path (§3.2).
func (it *Iter) appendNoise() {
	inf := it.inf
	if len(inf.collectors) == 0 || len(inf.collectors[0].Peers) < 2 {
		return
	}
	d := it.day
	t := inf.world.TransitASNs
	junkOrigin := asn.ASN(64700 + inf.hash64(0, d, 1)%100) // varies daily
	mk := func(ci, pi int, prefix netip.Prefix, path ...asn.ASN) {
		ps := len(it.noisePrefixes)
		it.noisePrefixes = append(it.noisePrefixes, prefix)
		it.noiseIDs = append(it.noiseIDs, it.table.intern(prefix))
		as := len(it.pathArena)
		it.pathArena = append(grow.Room(it.pathArena, len(path)), path...)
		it.obs = grow.Append(it.obs, Observation{Collector: ci, Peer: pi,
			Prefixes: it.noisePrefixes[ps : ps+1 : ps+1],
			Path:     it.pathArena[as:len(it.pathArena):len(it.pathArena)],
			ids:      it.noiseIDs[ps : ps+1 : ps+1]})
	}
	// Looped path: the same transit appears in two non-adjacent positions.
	loop := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(d % 250), 0}), 24)
	for pi := 0; pi < 2; pi++ {
		// Both peers see the junk prefixes, so only the prefix filter keeps
		// them out.
		peerAS := inf.collectors[0].Peers[pi].AS
		mk(0, pi, noiseLong, peerAS, t[0], junkOrigin)
		mk(0, pi, noiseShort, peerAS, t[0], junkOrigin)
		mk(0, pi, noiseLong6, peerAS, t[0], junkOrigin)
		mk(0, pi, loop, peerAS, t[0], t[1], t[0], junkOrigin)
	}
}
