// Package stream is the crash-safe streaming ingestion layer: a Tailer
// follows a growing collector archive one complete day at a time, folds
// each day into a running activity carry via the bgpscan partial-merge
// path (no recompute of prior days), and records its position and
// carry-state in a CRC-checksummed checkpoint journal written with
// write-temp-fsync-rename discipline. A crash — of the process or of a
// checkpoint write — resumes from the last committed day, and the tail
// of a full window converges on a lifestore snapshot byte-identical to
// a single batch pipeline.Run over the same options (the
// crash-equivalence property test pins this, on clean and chaos
// inputs).
//
// The Source abstraction follows bgpipe's ris-live stage: messages
// (here: whole days) carry their collector identity, reads have a
// deadline, staleness is an error (ErrStale) that triggers the Tailer's
// reconnect path, and reconnects are paced by the bounded deterministic
// backoff of faults.Reconnector.
//
// The directory source (DirSource) reads one day ahead of its caller into
// two recycled Day slots, so the scan of day N overlaps the file reads of
// day N+1 and a steady-state day allocates no archive memory; the price
// is the Source rule that a Day is only good until the next Next.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"

	"parallellives/internal/dates"
)

// ArchiveKind distinguishes a day's RIB snapshot from its update dump.
// The numeric values are the kinds pipeline.Base.ScanArchive salts MRT
// injection with, so a chaos-mode tail mangles archives identically to
// the batch scan.
type ArchiveKind uint8

const (
	KindRIB ArchiveKind = iota
	KindUpdates
)

func (k ArchiveKind) String() string {
	if k == KindRIB {
		return "rib"
	}
	return "upd"
}

// Archive is one collector's MRT archive for one day, tagged with the
// identity the scan keys on: the collector's name and index (the
// ris-live COLLECTOR tag) and the rib/update kind.
type Archive struct {
	Collector    string
	CollectorIdx int
	Kind         ArchiveKind
	Data         []byte
}

// Day is one complete day of collector data. Archives must be ordered
// exactly as the batch scan feeds them — all RIB dumps in collector
// order, then all update dumps in collector order. The order is
// load-bearing: the scanner clamps >64 distinct peers per day onto one
// bit, so observation order affects visibility masks, and equivalence
// with the batch pipeline requires feeding identical order.
//
// A Day a Source returned, and every Archive.Data in it, belongs to the
// source: see Source.Next for how long it may be used.
type Day struct {
	Day      dates.Day
	Archives []Archive
}

// DayFromMRT assembles a Day from per-collector RIB and update archives
// (the shape collector.Iter.MRT returns), naming collectors rrc%02d as
// the simulated infrastructure does.
func DayFromMRT(d dates.Day, ribs, updates [][]byte) *Day {
	day := &Day{Day: d, Archives: make([]Archive, 0, len(ribs)+len(updates))}
	for ci, rib := range ribs {
		day.Archives = append(day.Archives, Archive{
			Collector: fmt.Sprintf("rrc%02d", ci), CollectorIdx: ci, Kind: KindRIB, Data: rib,
		})
	}
	for ci, upd := range updates {
		day.Archives = append(day.Archives, Archive{
			Collector: fmt.Sprintf("rrc%02d", ci), CollectorIdx: ci, Kind: KindUpdates, Data: upd,
		})
	}
	return day
}

// ErrStale reports that a source produced no complete day within its
// read deadline — staleness-as-error (ris-live's --delay-err), the
// signal that sends the Tailer into its reconnect path instead of
// blocking forever on a wedged source.
var ErrStale = errors.New("stream: source stale: no complete day within the read deadline")

// Source yields complete days of collector data in ascending day order.
// Implementations are used by one goroutine at a time.
type Source interface {
	// Next returns the first complete day after `after`, blocking until
	// one is available, the read deadline passes (ErrStale), or ctx is
	// cancelled. A source that re-delivers a day at or before `after`
	// (e.g. after a reconnect rewound its cursor) is tolerated: the
	// Tailer skips already-committed days idempotently. A Day is valid
	// until the next Next on that source, which may refill its buffers;
	// a caller that keeps bytes longer copies them.
	Next(ctx context.Context, after dates.Day) (*Day, error)
	// Reconnect re-establishes the source after ErrStale or a transport
	// error. It is paced externally (faults.Reconnector); a failed
	// reconnect just triggers another paced attempt.
	Reconnect(ctx context.Context) error
	io.Closer
}
