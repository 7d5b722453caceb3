package collector

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/mrt"
)

// prefixKey is a netip.Prefix flattened to three plain words — the
// address as 16 bytes (IPv4 in its v4-mapped form) and family<<8 |
// length — so that it hashes as flat memory and sorts without calling
// into netip.
type prefixKey struct {
	hi, lo uint64
	meta   uint64 // family (0 IPv4, 1 IPv6) << 8 | prefix length
}

func keyOf(p netip.Prefix) prefixKey {
	a := p.Addr()
	b := a.As16()
	k := prefixKey{
		hi:   binary.BigEndian.Uint64(b[:8]),
		lo:   binary.BigEndian.Uint64(b[8:]),
		meta: uint64(uint8(p.Bits())),
	}
	if !a.Is4() {
		k.meta |= 1 << 8
	}
	return k
}

// compare orders keys the way a RIB dump is ordered, netip's
// Addr.Compare and then Bits: IPv4 before IPv6, then by address, then by
// prefix length.
func (k prefixKey) compare(o prefixKey) int {
	if c := cmp.Compare(k.meta>>8, o.meta>>8); c != 0 {
		return c
	}
	if c := cmp.Compare(k.hi, o.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(k.lo, o.lo); c != 0 {
		return c
	}
	return cmp.Compare(k.meta, o.meta)
}

// slotKey is one distinct prefix of a collector-day: its sort key and
// its slot, the row of encoder.route holding its routes.
type slotKey struct {
	key  prefixKey
	slot int32
}

// loser is a route that found its (prefix, peer) RIB entry already
// taken by an earlier origin.
type loser struct {
	slot, peer, obs int32
}

// encoder is the scratch Iter.MRT encodes a day with. Every field is
// reset, not reallocated, by the next call (DESIGN.md §15.1 rule 2), and
// the returned archives never alias it (rule 3): the only memory a call
// allocates is the archives themselves.
type encoder struct {
	// attrs holds every observation's RIB attribute block, encoded once
	// per day: observation i's is attrs[attrAt[i]:attrAt[i+1]]. A RIB
	// entry copies its block out of here.
	attrs  []byte
	attrAt []int32

	// Per collector-day: slotOf numbers the distinct prefixes in
	// encounter order, prefixes and order are indexed by / carry that
	// slot, and route[slot*peers+peer] is 1 + the index of the
	// observation that owns the (prefix, peer) RIB entry, 0 for none.
	slotOf   map[prefixKey]int32
	prefixes []netip.Prefix
	order    []slotKey
	route    []int32
	losers   []loser

	entries  []mrt.RIBEntry
	ribAttrs bgp.Update // ORIGIN + AS_PATH + NEXT_HOP of a RIB entry
	announce bgp.Update // one-prefix UPDATE of the update dump
	msg      []byte     // announce, encoded

	// sizes[ci] is the length of collector ci's RIB and update archives
	// the last time they were encoded: consecutive days differ by
	// little, so they size the next day's buffers.
	sizes [][2]int
}

func (e *encoder) init(collectors int) {
	e.slotOf = make(map[prefixKey]int32)
	e.ribAttrs = bgp.Update{
		Path:      []bgp.Segment{{Type: bgp.SegmentSequence}},
		NextHop:   netip.AddrFrom4([4]byte{192, 0, 2, 254}),
		HasOrigin: true,
	}
	e.announce = bgp.Update{
		Announced: make([]netip.Prefix, 1),
		Path:      []bgp.Segment{{Type: bgp.SegmentSequence}},
		HasOrigin: true,
	}
	e.sizes = make([][2]int, collectors)
}

// MRT encodes the current day as MRT archives, one RIB dump per
// collector plus one update dump per collector, returned in collector
// order. The encoding is self-contained: each RIB starts with its
// PEER_INDEX_TABLE. The archives are the caller's to keep: nothing the
// iterator does later touches them.
func (it *Iter) MRT() (ribs [][]byte, updates [][]byte, err error) {
	e := &it.enc
	cols := it.inf.collectors
	if e.slotOf == nil {
		e.init(len(cols))
	}
	e.encodeAttrs(it.obs)
	ts := uint32(it.day.Unix())
	out := make([][]byte, 2*len(cols))
	ribs, updates = out[:len(cols):len(cols)], out[len(cols):]
	for ci := range cols {
		e.collectRoutes(ci, len(cols[ci].Peers), it.obs)
		if ribs[ci], err = e.appendRIB(newArchive(e.sizes[ci][0]), &cols[ci], ts); err != nil {
			return nil, nil, err
		}
		if updates[ci], err = e.appendUpdates(newArchive(e.sizes[ci][1]), &cols[ci], ts, it.obs); err != nil {
			return nil, nil, err
		}
		e.sizes[ci] = [2]int{len(ribs[ci]), len(updates[ci])}
	}
	return ribs, updates, nil
}

// newArchive allocates an output buffer for an archive that was prev
// bytes long the last time, with headroom for a day's growth.
func newArchive(prev int) []byte { return make([]byte, 0, prev+prev/16) }

// encodeAttrs fills the attribute arena for the day's observations.
func (e *encoder) encodeAttrs(obs []Observation) {
	e.attrs, e.attrAt = e.attrs[:0], append(e.attrAt[:0], 0)
	for i := range obs {
		e.ribAttrs.Path[0].ASNs = obs[i].Path
		e.attrs = e.ribAttrs.AppendAttrs(e.attrs, true)
		e.attrAt = append(e.attrAt, int32(len(e.attrs)))
	}
}

// collectRoutes builds collector ci's route table for the day. A RIB
// holds one best path per (prefix, peer); when several origins announce
// the same prefix to the same peer during the day (MOAS and churn), the
// first becomes the RIB entry and the rest are exported in the update
// dump — exactly how a real collector's daily data splits between its
// RIB snapshot and its update files. A prefix gets its slot from the
// first route seen for it, so every slot has at least one route.
func (e *encoder) collectRoutes(ci, peers int, obs []Observation) {
	clear(e.slotOf)
	e.prefixes, e.order = e.prefixes[:0], e.order[:0]
	e.route, e.losers = e.route[:0], e.losers[:0]
	for i := range obs {
		o := &obs[i]
		if o.Collector != ci {
			continue
		}
		for _, p := range o.Prefixes {
			k := keyOf(p)
			slot, ok := e.slotOf[k]
			if !ok {
				slot = int32(len(e.prefixes))
				e.slotOf[k] = slot
				e.prefixes = append(e.prefixes, p)
				e.order = append(e.order, slotKey{k, slot})
				for range peers {
					e.route = append(e.route, 0)
				}
			}
			if r := &e.route[int(slot)*peers+o.Peer]; *r == 0 {
				*r = int32(i) + 1
			} else {
				e.losers = append(e.losers, loser{slot: slot, peer: int32(o.Peer), obs: int32(i)})
			}
		}
	}
	slices.SortFunc(e.order, func(a, b slotKey) int { return a.key.compare(b.key) })
}

// routesOf returns the route-table row of a prefix slot: per peer, 1 +
// the owning observation's index, or 0.
func (e *encoder) routesOf(slot int32, peers int) []int32 {
	return e.route[int(slot)*peers : (int(slot)+1)*peers]
}

// appendRIB appends the collector's TABLE_DUMP_V2 dump to dst: the peer
// index table, then one record per prefix in sorted order.
func (e *encoder) appendRIB(dst []byte, col *Collector, ts uint32) ([]byte, error) {
	tbl := mrt.PeerIndexTable{CollectorID: col.ID, ViewName: col.Name, Peers: col.Peers}
	at := len(dst)
	dst = mrt.BeginRecord(dst, ts, mrt.TypeTableDumpV2, mrt.SubtypePeerIndexTable)
	dst = tbl.AppendTo(dst)
	mrt.EndRecord(dst, at)

	for seq, sk := range e.order {
		rec := mrt.RIBRecord{Seq: uint32(seq), Prefix: e.prefixes[sk.slot], Entries: e.entries[:0]}
		for pi, oi := range e.routesOf(sk.slot, len(col.Peers)) {
			if oi == 0 {
				continue
			}
			rec.Entries = append(rec.Entries, mrt.RIBEntry{
				PeerIndex:      uint16(pi),
				OriginatedTime: ts,
				Attrs:          e.attrs[e.attrAt[oi-1]:e.attrAt[oi]],
			})
		}
		e.entries = rec.Entries
		at := len(dst)
		dst = mrt.BeginRecord(dst, ts, mrt.TypeTableDumpV2, rec.Subtype())
		var err error
		if dst, err = rec.AppendTo(dst); err != nil {
			return nil, err
		}
		mrt.EndRecord(dst, at)
	}
	return dst, nil
}

// appendUpdates appends the collector's update dump to dst: the day's
// losers in encounter order, then a deterministic slice of today's
// routes re-announced as BGP4MP messages (the paper processes RIBs plus
// all updates; here updates carry the same day's information, exercising
// the second decode path).
func (e *encoder) appendUpdates(dst []byte, col *Collector, ts uint32, obs []Observation) ([]byte, error) {
	var err error
	for _, l := range e.losers {
		if dst, err = e.appendUpdate(dst, col, ts, int(l.peer), obs[l.obs].Path, e.prefixes[l.slot]); err != nil {
			return nil, err
		}
	}
	for _, sk := range e.order[:min(64, len(e.order))] {
		for pi, oi := range e.routesOf(sk.slot, len(col.Peers)) {
			if oi == 0 {
				continue
			}
			if dst, err = e.appendUpdate(dst, col, ts, pi, obs[oi-1].Path, e.prefixes[sk.slot]); err != nil {
				return nil, err
			}
			break // one re-announcement per prefix suffices
		}
	}
	return dst, nil
}

// appendUpdate appends one BGP4MP UPDATE record for a route.
func (e *encoder) appendUpdate(dst []byte, col *Collector, ts uint32, pi int, path []asn.ASN, prefix netip.Prefix) ([]byte, error) {
	e.announce.Announced[0] = prefix
	e.announce.Path[0].ASNs = path
	var err error
	if e.msg, err = e.announce.AppendMessage(e.msg[:0], true); err != nil {
		return nil, err
	}
	m := mrt.BGP4MPMessage{
		PeerAS:   col.Peers[pi].AS,
		LocalAS:  65534,
		PeerIP:   col.Peers[pi].Addr,
		LocalIP:  netip.AddrFrom4([4]byte{203, 0, 113, 254}),
		Data:     e.msg,
		FourByte: true,
	}
	at := len(dst)
	dst = mrt.BeginRecord(dst, ts, mrt.TypeBGP4MP, m.Subtype())
	if dst, err = m.AppendTo(dst); err != nil {
		return nil, err
	}
	mrt.EndRecord(dst, at)
	return dst, nil
}
