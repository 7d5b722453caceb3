package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"

	"parallellives/internal/collector"
	"parallellives/internal/dates"
)

// ArchiveKind distinguishes a day's RIB snapshot from its update dump.
// The numeric values are the kinds ScanDay salts MRT injection with, so
// every source of the same day mangles identically.
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
// as the collector renders them — all RIB dumps in collector order, then
// all update dumps in collector order. The order is load-bearing: the
// scanner clamps >64 distinct peers per day onto one bit, so observation
// order affects visibility masks, and every source must feed a day in
// the same order for its scans to agree.
//
// A Day a Source returned, and every Archive.Data in it, belongs to the
// source: see Source.Next for how long it may be used.
type Day struct {
	Day      dates.Day
	Archives []Archive

	// direct holds the day's observations when the collector source runs
	// without the MRT codec (Options.Wire off); ScanDay feeds them after
	// the archives, of which such a day has none.
	direct []collector.Observation
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
// signal that sends a tailer into its reconnect path instead of
// blocking forever on a wedged source.
var ErrStale = errors.New("source stale: no complete day within the read deadline")

// Source yields complete days of collector data in ascending day order.
// Implementations are used by one goroutine at a time.
type Source interface {
	// Next returns the first complete day after `after`, blocking until
	// one is available, the read deadline passes (ErrStale), or ctx is
	// cancelled. A source that re-delivers a day at or before `after`
	// (e.g. after a reconnect rewound its cursor) is tolerated: a tailer
	// skips already-committed days idempotently. A Day is valid until
	// the next Next on that source, which may refill its buffers; a
	// caller that keeps bytes longer copies them.
	Next(ctx context.Context, after dates.Day) (*Day, error)
	// Reconnect re-establishes the source after ErrStale or a transport
	// error. It is paced externally (faults.Reconnector); a failed
	// reconnect just triggers another paced attempt.
	Reconnect(ctx context.Context) error
	io.Closer
}

// CollectorSource is the in-process Source over the simulated
// collectors: each Next renders a day and encodes it into the archive
// buffers the previous day used, so a steady-state day allocates no
// archive memory. Past its last day Next returns io.EOF.
type CollectorSource struct {
	inf        *collector.Infrastructure
	end        dates.Day
	wire       bool
	it         *collector.Iter
	day        Day
	ribs, upds [][]byte
}

// NewCollectorSource returns a source over the days [start, end] of the
// infrastructure's window, in the MRT wire format.
func NewCollectorSource(inf *collector.Infrastructure, start, end dates.Day) *CollectorSource {
	return newCollectorSource(inf, start, end, true)
}

// newCollectorSource is NewCollectorSource with the codec optional: a
// source without wire yields each day's observations instead of archives.
func newCollectorSource(inf *collector.Infrastructure, start, end dates.Day, wire bool) *CollectorSource {
	s := &CollectorSource{inf: inf, end: end, wire: wire, it: inf.IterRange(start, end)}
	if wire {
		cols := inf.Collectors()
		s.day.Archives = make([]Archive, 2*len(cols))
		for ci, c := range cols {
			s.day.Archives[ci] = Archive{Collector: c.Name, CollectorIdx: ci, Kind: KindRIB}
			s.day.Archives[len(cols)+ci] = Archive{Collector: c.Name, CollectorIdx: ci, Kind: KindUpdates}
		}
	}
	return s
}

// Next implements Source. Asking for any day but the one after the last
// delivered restarts the iterator there: the collector renders a day
// identically from any iterator position.
func (s *CollectorSource) Next(ctx context.Context, after dates.Day) (*Day, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if after != s.it.Day() {
		s.it = s.inf.IterRange(after.AddDays(1), s.end)
	}
	if !s.it.Next() {
		return nil, io.EOF
	}
	s.day.Day = s.it.Day()
	if !s.wire {
		s.day.direct = s.it.Observations()
		return &s.day, nil
	}
	var err error
	if s.ribs, s.upds, err = s.it.AppendMRT(s.ribs, s.upds); err != nil {
		return nil, fmt.Errorf("pipeline: encoding day %s: %w", s.day.Day, err)
	}
	n := len(s.ribs)
	for ci := range s.ribs {
		s.day.Archives[ci].Data = s.ribs[ci]
		s.day.Archives[n+ci].Data = s.upds[ci]
	}
	return &s.day, nil
}

// Reconnect implements Source; an in-process source never disconnects.
func (s *CollectorSource) Reconnect(context.Context) error { return nil }

// Close implements io.Closer.
func (s *CollectorSource) Close() error { return nil }
