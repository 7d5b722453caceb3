package collector

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"

	"parallellives/internal/grow"
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

// prefixTable numbers the prefixes an Iter has rendered and keeps the
// numbers in RIB order. The routing table barely changes from one day
// to the next, so a prefix is hashed once, when the segment announcing
// it is first rendered, and sorted once, on the first day it is
// encoded; after that an observation names it by id and a day's RIB
// order is a walk of sorted(). Ids are an iterator-local naming: no
// archive byte depends on which id a prefix got, only on the order of
// the keys, so an iterator started mid-window encodes the same days.
//
// The table only grows between resets. The Iter counts the ids its
// expired segments let go of and, once they outnumber the rest, resets
// the table and interns its live segments again (Iter.rebuildTable),
// which bounds the table by twice the live prefixes (and the few noise
// prefixes, never released) without a knob.
type prefixTable struct {
	idOf     map[prefixKey]int32
	prefixes []netip.Prefix // by id
	keys     []prefixKey    // by id
	order    []int32        // the ids sorted so far, in RIB order
	unsorted []int32        // the ids interned since, in id order
	released int            // ids let go of since the last reset (a prefix shared by two segments counts twice)
}

// intern returns p's id, numbering p if the table has not seen it.
func (t *prefixTable) intern(p netip.Prefix) int32 {
	k := keyOf(p)
	id, ok := t.idOf[k]
	if !ok {
		if t.idOf == nil {
			t.idOf = make(map[prefixKey]int32)
		}
		id = int32(len(t.prefixes))
		t.idOf[k] = id
		t.prefixes = grow.Append(t.prefixes, p)
		t.keys = grow.Append(t.keys, k)
		t.unsorted = grow.Append(t.unsorted, id)
	}
	return id
}

// internAll appends the ids of ps to dst.
func (t *prefixTable) internAll(dst []int32, ps []netip.Prefix) []int32 {
	for _, p := range ps {
		dst = append(dst, t.intern(p))
	}
	return dst
}

// stale reports whether the released ids outnumber the live ones.
func (t *prefixTable) stale() bool { return 2*t.released > len(t.prefixes) }

// reset empties the table, keeping its memory. Every id handed out so
// far is void.
func (t *prefixTable) reset() {
	clear(t.idOf)
	t.prefixes, t.keys = t.prefixes[:0], t.keys[:0]
	t.order, t.unsorted = t.order[:0], t.unsorted[:0]
	t.released = 0
}

// sorted returns every id in RIB order. The ids interned since the last
// call are sorted among themselves and merged in from the back, so a day
// that brings no new prefix costs nothing and one that brings a few
// costs one pass over the table.
func (t *prefixTable) sorted() []int32 {
	if len(t.unsorted) == 0 {
		return t.order
	}
	byKey := func(a, b int32) int { return t.keys[a].compare(t.keys[b]) }
	slices.SortFunc(t.unsorted, byKey)
	i, j := len(t.order)-1, len(t.unsorted)-1
	t.order = grow.Room(t.order, len(t.unsorted))[:len(t.order)+len(t.unsorted)]
	for k := len(t.order) - 1; j >= 0; k-- {
		if i >= 0 && byKey(t.order[i], t.unsorted[j]) > 0 {
			t.order[k] = t.order[i]
			i--
		} else {
			t.order[k] = t.unsorted[j]
			j--
		}
	}
	t.unsorted = t.unsorted[:0]
	return t.order
}
