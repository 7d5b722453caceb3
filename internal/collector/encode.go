package collector

import (
	"net/netip"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/grow"
	"parallellives/internal/mrt"
)

// loser is a route that found its (prefix, peer) RIB entry already
// taken by an earlier origin.
type loser struct {
	id, peer, obs int32
}

// encoder is the scratch Iter.AppendMRT encodes a day with. Every field
// is reset, not reallocated, by the next call (DESIGN.md §15.1 rule 2),
// and the returned archives never alias it (rule 3): the only memory a
// call allocates is the archives it was not handed.
type encoder struct {
	// attrs holds every observation's RIB attribute block, encoded once
	// per day: observation i's is attrs[attrAt[i]:attrAt[i+1]]. A RIB
	// entry copies its block out of here.
	attrs  []byte
	attrAt []int32

	// Per collector-day, indexed by the ids of Iter.table:
	// route[id*peers+peer] is 1 + the index of the observation that owns
	// the (prefix, peer) RIB entry, 0 for none; touched[id] marks the
	// prefixes some route of this collector named, and order lists them
	// in RIB order.
	route   []int32
	touched []bool
	order   []int32
	losers  []loser

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
	return it.AppendMRT(nil, nil)
}

// AppendMRT is MRT encoding into the caller's buffers: ribs and updates
// are what an earlier call returned (or nil), their contents are
// overwritten and the archives returned reuse their memory, growing it
// where today's are longer. The caller owns what it passes in and what
// it gets back; the iterator keeps no reference to either. A caller that
// is done with a day's archives before it encodes the next hands them
// back here and the encoder allocates nothing.
func (it *Iter) AppendMRT(ribs, updates [][]byte) ([][]byte, [][]byte, error) {
	e := &it.enc
	cols := it.inf.collectors
	if e.sizes == nil {
		e.init(len(cols))
	}
	if len(ribs) != len(cols) || len(updates) != len(cols) {
		out := make([][]byte, 2*len(cols))
		ribs, updates = out[:len(cols):len(cols)], out[len(cols):]
	}
	e.encodeAttrs(it.obs)
	ts := uint32(it.day.Unix())
	var err error
	for ci := range cols {
		e.collectRoutes(ci, len(cols[ci].Peers), it.obs, &it.table)
		if ribs[ci], err = e.appendRIB(archiveBuf(ribs[ci], e.sizes[ci][0]), &cols[ci], ts, &it.table); err != nil {
			return nil, nil, err
		}
		if updates[ci], err = e.appendUpdates(archiveBuf(updates[ci], e.sizes[ci][1]), &cols[ci], ts, it.obs, &it.table); err != nil {
			return nil, nil, err
		}
		e.sizes[ci] = [2]int{len(ribs[ci]), len(updates[ci])}
	}
	return ribs, updates, nil
}

// archiveBuf returns the buffer an archive is encoded into: the caller's,
// emptied, or a new one for an archive that was prev bytes long the last
// time, with headroom for a day's growth.
func archiveBuf(buf []byte, prev int) []byte {
	if buf == nil {
		return make([]byte, 0, prev+prev/16)
	}
	return buf[:0]
}

// encodeAttrs fills the attribute arena for the day's observations.
func (e *encoder) encodeAttrs(obs []Observation) {
	e.attrs, e.attrAt = e.attrs[:0], append(grow.Room(e.attrAt[:0], len(obs)+1), 0)
	for i := range obs {
		e.ribAttrs.Path[0].ASNs = obs[i].Path
		// 15 bytes of attribute headers and values, 2 per AS_PATH
		// segment (at most 1+n of them) and 4 per ASN.
		e.attrs = grow.Room(e.attrs, 17+6*len(obs[i].Path))
		e.attrs = e.ribAttrs.AppendAttrs(e.attrs, true)
		e.attrAt = append(e.attrAt, int32(len(e.attrs)))
	}
}

// collectRoutes builds collector ci's route table for the day. A RIB
// holds one best path per (prefix, peer); when several origins announce
// the same prefix to the same peer during the day (MOAS and churn), the
// first becomes the RIB entry and the rest are exported in the update
// dump — exactly how a real collector's daily data splits between its
// RIB snapshot and its update files. The day's RIB order is the table's,
// less the prefixes no route of this collector named.
func (e *encoder) collectRoutes(ci, peers int, obs []Observation, t *prefixTable) {
	n := len(t.prefixes)
	e.route, e.touched = zeroed(e.route, n*peers), zeroed(e.touched, n)
	e.order, e.losers = e.order[:0], e.losers[:0]
	for i := range obs {
		o := &obs[i]
		if o.Collector != ci {
			continue
		}
		for _, id := range o.ids {
			e.touched[id] = true
			if r := &e.route[int(id)*peers+o.Peer]; *r == 0 {
				*r = int32(i) + 1
			} else {
				e.losers = append(e.losers, loser{id: id, peer: int32(o.Peer), obs: int32(i)})
			}
		}
	}
	for _, id := range t.sorted() {
		if e.touched[id] {
			e.order = append(e.order, id)
		}
	}
}

// zeroed returns s resized to n zero elements, in its own memory when
// that is large enough.
func zeroed[T any](s []T, n int) []T {
	s = grow.Room(s[:0], n)[:n]
	clear(s)
	return s
}

// routesOf returns the route-table row of a prefix: per peer, 1 + the
// owning observation's index, or 0.
func (e *encoder) routesOf(id int32, peers int) []int32 {
	return e.route[int(id)*peers : (int(id)+1)*peers]
}

// recordHead bounds the bytes an archive record takes besides its RIB
// entries or BGP message: the 12-byte MRT header, then a RIB record's
// sequence number, prefix and entry count (at most 23 bytes) or a
// BGP4MP header (at most 44).
const recordHead = 12 + 44

// appendRIB appends the collector's TABLE_DUMP_V2 dump to dst: the peer
// index table, then one record per prefix in sorted order.
func (e *encoder) appendRIB(dst []byte, col *Collector, ts uint32, t *prefixTable) ([]byte, error) {
	tbl := mrt.PeerIndexTable{CollectorID: col.ID, ViewName: col.Name, Peers: col.Peers}
	at := len(dst)
	dst = mrt.BeginRecord(dst, ts, mrt.TypeTableDumpV2, mrt.SubtypePeerIndexTable)
	dst = tbl.AppendTo(dst)
	mrt.EndRecord(dst, at)

	for seq, id := range e.order {
		rec := mrt.RIBRecord{Seq: uint32(seq), Prefix: t.prefixes[id], Entries: e.entries[:0]}
		size := recordHead
		for pi, oi := range e.routesOf(id, len(col.Peers)) {
			if oi == 0 {
				continue
			}
			rec.Entries = append(rec.Entries, mrt.RIBEntry{
				PeerIndex:      uint16(pi),
				OriginatedTime: ts,
				Attrs:          e.attrs[e.attrAt[oi-1]:e.attrAt[oi]],
			})
			size += 8 + int(e.attrAt[oi]-e.attrAt[oi-1]) // peer index, time, length, block
		}
		e.entries = rec.Entries
		dst = grow.Room(dst, size)
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
func (e *encoder) appendUpdates(dst []byte, col *Collector, ts uint32, obs []Observation, t *prefixTable) ([]byte, error) {
	var err error
	for _, l := range e.losers {
		if dst, err = e.appendUpdate(dst, col, ts, int(l.peer), obs[l.obs].Path, t.prefixes[l.id]); err != nil {
			return nil, err
		}
	}
	for _, id := range e.order[:min(64, len(e.order))] {
		for pi, oi := range e.routesOf(id, len(col.Peers)) {
			if oi == 0 {
				continue
			}
			if dst, err = e.appendUpdate(dst, col, ts, pi, obs[oi-1].Path, t.prefixes[id]); err != nil {
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
	dst = grow.Room(dst, recordHead+len(e.msg))
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
