package lifestore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// SaveSnapshot writes a captured snapshot to path atomically
// (WriteFileAtomic).
func SaveSnapshot(snap *Snapshot, path string) error {
	b, err := Encode(snap)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, b)
}

// WriteFileAtomic writes data to a temp file in path's directory and
// renames it over path, so a reader sees the old file or the new one,
// never a half-written one; on any error the temp file is removed. It
// does not fsync, so a machine crash can still lose the write (writer
// durability is ROADMAP 5(d)).
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("lifestore: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lifestore: writing %s: %w", path, err)
	}
	return nil
}

// Encode renders the snapshot in the versioned binary format. The output
// is a pure function of the snapshot: equal snapshots encode to equal
// bytes, which the determinism tests assert.
func Encode(snap *Snapshot) ([]byte, error) {
	// Per-ASN blocks and the index that locates them.
	var blocks []byte
	entries := make([]indexEntry, 0, len(snap.Lives))
	for _, l := range snap.Lives {
		blk := encodeBlock(l)
		entries = append(entries, indexEntry{
			asn:    l.ASN,
			off:    uint64(len(blocks)),
			length: uint64(len(blk)),
		})
		blocks = append(blocks, blk...)
	}

	type section struct {
		id      uint16
		payload []byte
	}
	sections := []section{
		{secMeta, encodeMeta(snap.Meta)},
		{secHealth, encodeHealth(snap.Health)},
		{secTaxonomy, encodeTaxonomy(snap.Taxonomy)},
		{secSeries, encodeSeries(snap.Series)},
		{secIndex, encodeIndex(entries)},
		{secBlocks, blocks},
	}
	if snap.Shard != nil {
		sections = append(sections, section{secShard, encodeShard(*snap.Shard)})
	}

	headerLen := headerFixedLen + sectionEntryLen*len(sections) + 4 // + table CRC
	total := headerLen
	for _, s := range sections {
		total += len(s.payload)
	}

	out := make([]byte, 0, total)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, FormatVersion)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(sections)))
	offset := uint64(headerLen)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint16(out, s.id)
		out = binary.LittleEndian.AppendUint16(out, 0) // reserved
		out = binary.LittleEndian.AppendUint64(out, offset)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, checksum(s.payload))
		offset += uint64(len(s.payload))
	}
	// The table CRC seals the header and section table, so a reader
	// detects damaged offsets before following them.
	out = binary.LittleEndian.AppendUint32(out, checksum(out))
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	if len(out) != total {
		return nil, fmt.Errorf("lifestore: layout error: wrote %d bytes, planned %d", len(out), total)
	}
	return out, nil
}
