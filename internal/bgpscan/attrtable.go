package bgpscan

import (
	"bytes"

	"parallellives/internal/dates"
	"parallellives/internal/grow"
)

// attrTable interns RIB attribute blocks: it maps the raw bytes of a
// block to what sanitization made of them, so a block is decoded,
// loop-checked and folded into the day once however many routes carry
// it — the route-attribute cache of a BGP daemon, applied to a scan.
//
// The key is the bytes, not their hash. add copies the block into arena,
// which the table owns — the caller's archive is never referenced after
// the call — and find compares the full block, so two blocks that
// collide on hash (or differ in one byte) are two entries. The hash only
// picks where probing starts.
//
// The table is cross-day state: each entry records the day it was last
// folded in. BeginDay compacts it to the blocks the previous day applied
// once the others reach a third of it, so it holds at most 3/2 of those
// plus the day's newly decoded blocks (TestTableBoundedAcrossDays).
type attrTable struct {
	arena []byte      // block bytes, back to back
	paths []uint32    // the blocks' paths as ASN ids, back to back
	ents  []attrEntry // in insertion order
	// slots is an open-addressed index over ents: entry index + 1, or 0
	// for empty. Its length is a power of two, at least twice len(ents).
	slots []uint32
}

// attrEntry is one interned block.
type attrEntry struct {
	route
	hash          uint32
	off, pathOff  uint32
	size, pathLen uint32
	day           dates.Day // the scan day the block was last folded in
	// hits counts the routes that carried the block today; EndDay turns
	// it into the origin's upstream count in one map write per block
	// instead of one per route.
	hits int64
}

// find returns the index of the entry whose bytes are exactly b, or -1.
// h must be the hash add was given for the same bytes.
func (t *attrTable) find(h uint32, b []byte) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		x := t.slots[i]
		if x == 0 {
			return -1
		}
		e := &t.ents[x-1]
		if e.hash == h && bytes.Equal(t.arena[e.off:e.off+e.size], b) {
			return int(x - 1)
		}
	}
}

// add interns b, which find must have just missed, with its route and
// path, copying both, as folded in on day d. The returned entry is valid
// until the next add.
func (t *attrTable) add(h uint32, b []byte, path []uint32, r route, d dates.Day) *attrEntry {
	t.ents = grow.Append(t.ents, attrEntry{
		route: r, hash: h, day: d,
		off: uint32(len(t.arena)), size: uint32(len(b)),
		pathOff: uint32(len(t.paths)), pathLen: uint32(len(path)),
	})
	t.arena = append(grow.Room(t.arena, len(b)), b...)
	t.paths = append(grow.Room(t.paths, len(path)), path...)
	if 2*len(t.ents) > len(t.slots) {
		t.slots = make([]uint32, max(1024, 2*len(t.slots)))
		for i := range t.ents {
			t.place(i)
		}
	} else {
		t.place(len(t.ents) - 1)
	}
	return &t.ents[len(t.ents)-1]
}

// place indexes ents[i] in the first free slot of its probe sequence.
func (t *attrTable) place(i int) {
	mask := uint32(len(t.slots) - 1)
	for j := t.ents[i].hash & mask; ; j = (j + 1) & mask {
		if t.slots[j] == 0 {
			t.slots[j] = uint32(i + 1)
			return
		}
	}
}

// pathOf returns the path of e, one of t's entries, aliasing t.
func (t *attrTable) pathOf(e *attrEntry) []uint32 {
	return t.paths[e.pathOff : e.pathOff+e.pathLen]
}

// compact keeps only the entries last folded in on day d, moving them
// down in place (a kept block's bytes never lie below where they move)
// and keeping every capacity.
func (t *attrTable) compact(d dates.Day) {
	old := t.ents
	t.arena, t.paths, t.ents = t.arena[:0], t.paths[:0], t.ents[:0]
	clear(t.slots)
	for _, e := range old {
		if e.day == d {
			t.add(e.hash, t.arena[e.off:e.off+e.size], t.paths[e.pathOff:e.pathOff+e.pathLen], e.route, d)
		}
	}
}
