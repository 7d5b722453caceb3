package bgpscan

import "bytes"

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
	hash          uint64
	off, pathOff  int
	size, pathLen uint32
	// hits counts the routes that carried the block today; EndDay turns
	// it into the origin's upstream count in one map write per block
	// instead of one per route.
	hits int64
}

// find returns the entry whose bytes are exactly b, or nil. h must be the
// hash add was given for the same bytes.
func (t *attrTable) find(h uint64, b []byte) *attrEntry {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		x := t.slots[i]
		if x == 0 {
			return nil
		}
		e := &t.ents[x-1]
		if e.hash == h && bytes.Equal(t.arena[e.off:e.off+int(e.size)], b) {
			return e
		}
	}
}

// add interns b, which find must have just missed, with its route and
// path, copying both. The returned entry is valid until the next add.
func (t *attrTable) add(h uint64, b []byte, path []uint32, r route) *attrEntry {
	t.ents = append(t.ents, attrEntry{
		route: r, hash: h,
		off: len(t.arena), size: uint32(len(b)),
		pathOff: len(t.paths), pathLen: uint32(len(path)),
	})
	t.arena = append(t.arena, b...)
	t.paths = append(t.paths, path...)
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
	mask := uint64(len(t.slots) - 1)
	for j := t.ents[i].hash & mask; ; j = (j + 1) & mask {
		if t.slots[j] == 0 {
			t.slots[j] = uint32(i + 1)
			return
		}
	}
}

// pathOf returns the path of e, one of t's entries, aliasing t.
func (t *attrTable) pathOf(e *attrEntry) []uint32 {
	return t.paths[e.pathOff : e.pathOff+int(e.pathLen)]
}

// reset empties the table, keeping every capacity.
func (t *attrTable) reset() {
	t.arena = t.arena[:0]
	t.paths = t.paths[:0]
	t.ents = t.ents[:0]
	clear(t.slots)
}
