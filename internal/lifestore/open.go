package lifestore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/faults"
)

// ErrCorrupt classifies every structural snapshot failure — bad magic,
// version or section-table shape, checksum mismatches, and block decode
// errors. Callers branch on it with errors.Is: corruption is permanent
// (reload or rebuild the snapshot), unlike a transient read error which
// a retry or circuit-breaker half-open may clear.
var ErrCorrupt = errors.New("corrupt snapshot")

// corruptf builds an ErrCorrupt-classified error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Store is an opened snapshot. The small sections (metadata, health,
// taxonomy, series, index) are decoded eagerly at Open; per-ASN life
// blocks stay on disk and are read and checksummed individually on
// Lookup, so a cold single-ASN query touches only its own bytes.
//
// A Store is safe for concurrent use: all mutable state is built at Open
// and lookups go through io.ReaderAt.
type Store struct {
	r      io.ReaderAt
	closer io.Closer

	// met is the optional metrics attachment (see Instrument). An
	// atomic pointer so instrumentation can be added or removed while
	// concurrent lookups are in flight.
	met atomic.Pointer[storeMetrics]

	meta     Meta
	health   faults.Health
	taxonomy core.TaxonomyCounts
	series   *core.AliveSeries
	index    []indexEntry
	shard    *ShardInfo

	blocksOff uint64
	blocksLen uint64
	blocksCRC uint32
}

// Open opens a snapshot file for querying.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lifestore: %w", err)
	}
	st, err := NewStore(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lifestore: opening %s: %w", path, err)
	}
	st.closer = f
	return st, nil
}

// OpenBytes opens an in-memory snapshot image, mostly for tests. Every
// failure is ErrCorrupt-classified: with the whole image in memory there
// are no transient reads, so any error — including a short read past the
// end of a truncated image — means the bytes themselves are damaged.
func OpenBytes(b []byte) (*Store, error) {
	st, err := NewStore(bytes.NewReader(b))
	if err != nil && !errors.Is(err, ErrCorrupt) {
		err = fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return st, err
}

// NewStore reads the header, section table and eager sections from r,
// verifying every checksum it crosses. r must remain valid for the
// lifetime of the store.
func NewStore(r io.ReaderAt) (*Store, error) {
	fixed := make([]byte, headerFixedLen)
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if string(fixed[:8]) != magic {
		return nil, corruptf("not a lifestore snapshot (bad magic %q)", fixed[:8])
	}
	if v := binary.LittleEndian.Uint16(fixed[8:10]); v != FormatVersion {
		return nil, corruptf("unsupported snapshot format version %d (reader supports %d)", v, FormatVersion)
	}
	nsec := int(binary.LittleEndian.Uint16(fixed[10:12]))
	table := make([]byte, sectionEntryLen*nsec+4)
	if _, err := r.ReadAt(table, headerFixedLen); err != nil {
		return nil, fmt.Errorf("reading section table: %w", err)
	}
	sealed := append(append([]byte{}, fixed...), table[:len(table)-4]...)
	if got, want := checksum(sealed), binary.LittleEndian.Uint32(table[len(table)-4:]); got != want {
		return nil, corruptf("header checksum mismatch (got %08x, want %08x)", got, want)
	}

	st := &Store{r: r}
	seen := make(map[uint16]bool)
	for i := 0; i < nsec; i++ {
		entry := table[sectionEntryLen*i : sectionEntryLen*(i+1)]
		id := binary.LittleEndian.Uint16(entry[0:2])
		off := binary.LittleEndian.Uint64(entry[4:12])
		length := binary.LittleEndian.Uint64(entry[12:20])
		crc := binary.LittleEndian.Uint32(entry[20:24])
		if seen[id] {
			return nil, corruptf("duplicate section %d", id)
		}
		seen[id] = true

		if id == secBlocks {
			// The blocks section is the lazy one: record where it lives;
			// each block carries its own CRC, verified on Lookup.
			st.blocksOff, st.blocksLen, st.blocksCRC = off, length, crc
			continue
		}
		if id > secShard {
			continue // unknown additive section from a newer writer
		}
		payload := make([]byte, length)
		if _, err := r.ReadAt(payload, int64(off)); err != nil {
			return nil, fmt.Errorf("reading section %d: %w", id, err)
		}
		if got := checksum(payload); got != crc {
			return nil, corruptf("section %d checksum mismatch (got %08x, want %08x)", id, got, crc)
		}
		var err error
		switch id {
		case secMeta:
			st.meta, err = decodeMeta(payload)
		case secHealth:
			st.health, err = decodeHealth(payload)
		case secTaxonomy:
			st.taxonomy, err = decodeTaxonomy(payload)
		case secSeries:
			st.series, err = decodeSeries(payload)
		case secIndex:
			st.index, err = decodeIndex(payload)
		case secShard:
			var si ShardInfo
			if si, err = decodeShard(payload); err == nil {
				st.shard = &si
			}
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				err = fmt.Errorf("%w: %w", ErrCorrupt, err)
			}
			return nil, err
		}
	}
	for id := secMeta; id <= secBlocks; id++ {
		if !seen[id] {
			return nil, corruptf("missing section %d", id)
		}
	}
	return st, nil
}

// Close releases the underlying file, if the store owns one.
func (st *Store) Close() error {
	if st.closer == nil {
		return nil
	}
	return st.closer.Close()
}

// Meta returns the snapshot metadata.
func (st *Store) Meta() Meta { return st.meta }

// Health returns the captured pipeline health report.
func (st *Store) Health() faults.Health { return st.health }

// Taxonomy returns the Table-3 counts.
func (st *Store) Taxonomy() core.TaxonomyCounts { return st.taxonomy }

// Series returns the daily alive series over the snapshot window.
func (st *Store) Series() *core.AliveSeries { return st.series }

// Shard returns the shard identity of a SaveSharded file, or nil for a
// plain unsharded snapshot.
func (st *Store) Shard() *ShardInfo { return st.shard }

// ASNCount returns the number of distinct ASNs with at least one life.
func (st *Store) ASNCount() int { return len(st.index) }

// ASNs lists every ASN in the snapshot in ascending order.
func (st *Store) ASNs() []asn.ASN {
	out := make([]asn.ASN, len(st.index))
	for i, e := range st.index {
		out[i] = e.asn
	}
	return out
}

// Lookup reads, verifies and decodes one ASN's block. The second result
// reports whether the ASN exists in the snapshot.
func (st *Store) Lookup(a asn.ASN) (ASNLives, bool, error) {
	m := st.met.Load()
	if m == nil {
		l, ok, _, err := st.lookup(a)
		return l, ok, err
	}
	start := time.Now()
	l, ok, n, err := st.lookup(a)
	m.lookupSeconds.Observe(time.Since(start).Seconds())
	switch {
	case err != nil:
		m.errors.Inc()
	case !ok:
		m.misses.Inc()
	default:
		m.hits.Inc()
		m.blockBytes.Add(int64(n))
	}
	return l, ok, err
}

// LookupContext is Lookup with cancellation: a request whose deadline
// already expired (or whose client went away) returns ctx.Err() before
// paying for the block read, so an overloaded server sheds dead work
// instead of decoding blocks nobody is waiting for.
func (st *Store) LookupContext(ctx context.Context, a asn.ASN) (ASNLives, bool, error) {
	if err := ctx.Err(); err != nil {
		return ASNLives{}, false, err
	}
	return st.Lookup(a)
}

// lookup is the uninstrumented read; n is the block bytes read.
func (st *Store) lookup(a asn.ASN) (l ASNLives, ok bool, n int, err error) {
	i := sort.Search(len(st.index), func(i int) bool { return st.index[i].asn >= a })
	if i >= len(st.index) || st.index[i].asn != a {
		return ASNLives{}, false, 0, nil
	}
	e := st.index[i]
	if e.off+e.length > st.blocksLen {
		return ASNLives{}, false, 0, fmt.Errorf("lifestore: %w", corruptf("AS%s block [%d,%d) outside blocks section of %d bytes",
			a, e.off, e.off+e.length, st.blocksLen))
	}
	buf := make([]byte, e.length)
	if _, err := st.r.ReadAt(buf, int64(st.blocksOff+e.off)); err != nil {
		return ASNLives{}, false, 0, fmt.Errorf("lifestore: reading AS%s block: %w", a, err)
	}
	l, err = decodeBlock(buf)
	if err != nil {
		return ASNLives{}, false, 0, fmt.Errorf("lifestore: AS%s block: %w", a, err)
	}
	if l.ASN != a {
		return ASNLives{}, false, 0, fmt.Errorf("lifestore: %w", corruptf("index points AS%s at a block for AS%s", a, l.ASN))
	}
	return l, true, len(buf), nil
}

// Snapshot decodes the entire store back into memory, verifying the
// whole-section blocks checksum on the way — the full-fidelity read that
// Diff-based round-trip proofs use.
func (st *Store) Snapshot() (*Snapshot, error) {
	blocks, err := st.readBlocks()
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Meta:     st.meta,
		Health:   st.health,
		Taxonomy: st.taxonomy,
		Series:   st.series,
		Shard:    st.shard,
		Lives:    make([]ASNLives, 0, len(st.index)),
	}
	for _, e := range st.index {
		l, err := st.decodeIndexed(blocks, e)
		if err != nil {
			return nil, err
		}
		snap.Lives = append(snap.Lives, l)
	}
	return snap, nil
}

// readBlocks loads the whole blocks section and verifies its section
// checksum.
func (st *Store) readBlocks() ([]byte, error) {
	blocks := make([]byte, st.blocksLen)
	if _, err := st.r.ReadAt(blocks, int64(st.blocksOff)); err != nil {
		return nil, fmt.Errorf("lifestore: reading blocks section: %w", err)
	}
	if got := checksum(blocks); got != st.blocksCRC {
		return nil, fmt.Errorf("lifestore: %w", corruptf("blocks section checksum mismatch (got %08x, want %08x)", got, st.blocksCRC))
	}
	return blocks, nil
}

// decodeIndexed decodes one index entry's block out of the loaded
// blocks section.
func (st *Store) decodeIndexed(blocks []byte, e indexEntry) (ASNLives, error) {
	if e.off+e.length > st.blocksLen {
		return ASNLives{}, fmt.Errorf("lifestore: %w", corruptf("AS%s block outside blocks section", e.asn))
	}
	l, err := decodeBlock(blocks[e.off : e.off+e.length])
	if err != nil {
		return ASNLives{}, fmt.Errorf("lifestore: AS%s block: %w", e.asn, err)
	}
	if l.ASN != e.asn {
		return ASNLives{}, fmt.Errorf("lifestore: %w", corruptf("index points AS%s at a block for AS%s", e.asn, l.ASN))
	}
	return l, nil
}

// VerifyBlocks proves every byte of the lazy blocks section is intact:
// the whole-section checksum matches and each indexed block reads,
// checksums and decodes to the ASN the index claims. Open verifies only
// the eager sections; a hot reload calls VerifyBlocks before swapping a
// new snapshot in, so a half-written or bit-rotted file is rejected
// while the old generation keeps serving.
func (st *Store) VerifyBlocks() error {
	blocks, err := st.readBlocks()
	if err != nil {
		return err
	}
	for _, e := range st.index {
		if _, err := st.decodeIndexed(blocks, e); err != nil {
			return err
		}
	}
	return nil
}
