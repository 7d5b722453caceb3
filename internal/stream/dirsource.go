package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parallellives/internal/dates"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
)

// Directory layout: one file per archive plus a marker per complete day.
//
//	2006-01-02.rrc00.rib.mrt
//	2006-01-02.rrc00.upd.mrt
//	2006-01-02.ok          ← "<kind> <collector> <filename>" per line
//
// The writer publishes every archive with write-temp-rename and writes
// the marker last, so marker presence implies the day is complete and
// the marker's line order is the scan feeding order (RIBs in collector
// order, then updates). A reader never observes a half-written day.

// markerName returns the completeness marker's filename for a day.
func markerName(d dates.Day) string { return d.String() + ".ok" }

// archiveName returns an archive's filename.
func archiveName(d dates.Day, collector string, kind pipeline.ArchiveKind) string {
	return fmt.Sprintf("%s.%s.%s.mrt", d, collector, kind)
}

// DirWriter publishes complete days into a collector directory — the
// feed side of the live-tail simulation (`parallellives feed`) and of the
// stream tests.
type DirWriter struct {
	dir string
}

// NewDirWriter creates (if needed) and wraps the day directory.
func NewDirWriter(dir string) (*DirWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: dir writer: %w", err)
	}
	return &DirWriter{dir: dir}, nil
}

// WriteDay publishes one day: each archive atomically, then the marker
// atomically. Re-writing an already-published day is a no-op.
func (w *DirWriter) WriteDay(d *Day) error {
	marker := filepath.Join(w.dir, markerName(d.Day))
	if _, err := os.Stat(marker); err == nil {
		return nil
	}
	var manifest strings.Builder
	for _, ar := range d.Archives {
		name := archiveName(d.Day, ar.Collector, ar.Kind)
		if err := lifestore.WriteFileAtomic(filepath.Join(w.dir, name), ar.Data); err != nil {
			return err
		}
		fmt.Fprintf(&manifest, "%s %s %s\n", ar.Kind, ar.Collector, name)
	}
	return lifestore.WriteFileAtomic(marker, []byte(manifest.String()))
}

// DirOptions tunes a DirSource's read behaviour.
type DirOptions struct {
	// ReadTimeout bounds one Next call's wait for the day marker to
	// appear (ris-live's --read-timeout); expiry returns pipeline.ErrStale.
	// Default 30s.
	ReadTimeout time.Duration
	// Poll is the marker re-check interval. Default 25ms.
	Poll time.Duration
}

func (o DirOptions) withDefaults() DirOptions {
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 25 * time.Millisecond
	}
	return o
}

// DirSource tails a growing day directory. Days must appear
// contiguously (the writer publishes them in order); Next waits for
// exactly the next one.
//
// It reads one day ahead: when Next hands day N to the caller it starts
// one goroutine that makes a single load attempt at day N+1, so the file
// reads overlap the caller's scan of day N. The look-ahead never polls
// and never reports: a miss (the day is not published yet), an error, or
// a day the caller turns out not to ask for is discarded, and Next then
// loads synchronously exactly as it would have without it, so every
// error comes from the synchronous path.
//
// Two slots take turns — the caller holds one Day while the look-ahead
// fills the other — and load reads each archive into the buffer its slot
// used last time, so a steady-state day allocates no archive memory. That
// is what Source's "valid until the next Next" rule pays for.
type DirSource struct {
	dir string
	opt DirOptions

	slots [2]daySlot
	fill  int // the slot the next load fills; the caller may hold the other

	// The look-ahead in flight or finished: pending says there is one, for
	// aheadDay into slots[fill], and ahead receives its outcome. ahead's
	// capacity of one lets the goroutine end whether or not anyone
	// collects, so a source dropped without Close leaks nothing running.
	pending  bool
	aheadDay dates.Day
	ahead    chan error
}

// daySlot is one recycled Day and the marker bytes load parses it from.
type daySlot struct {
	day    Day
	marker []byte
}

// NewDirSource wraps the day directory.
func NewDirSource(dir string, opt DirOptions) *DirSource {
	return &DirSource{dir: dir, opt: opt.withDefaults(), ahead: make(chan error, 1)}
}

// Next implements Source: it waits for the marker of day after+1,
// polling until the read deadline (pipeline.ErrStale) or ctx cancellation.
func (s *DirSource) Next(ctx context.Context, after dates.Day) (*Day, error) {
	day := after.AddDays(1)
	slot := &s.slots[s.fill]
	if !s.drain() || s.aheadDay != day {
		if err := s.poll(ctx, day, slot); err != nil {
			return nil, err
		}
	}
	s.fill ^= 1
	s.pending, s.aheadDay = true, day.AddDays(1)
	go s.readAhead(s.aheadDay, &s.slots[s.fill])
	return &slot.day, nil
}

// readAhead is the look-ahead goroutine: one load attempt, no polling.
func (s *DirSource) readAhead(day dates.Day, slot *daySlot) {
	s.ahead <- s.load(day, slot)
}

// drain waits for the pending look-ahead, if any, and reports whether it
// left aheadDay loaded in slots[fill]. Either way that slot is free again.
func (s *DirSource) drain() bool {
	if !s.pending {
		return false
	}
	s.pending = false
	return <-s.ahead == nil
}

// poll loads day into slot, re-trying every Poll while the marker is
// absent. The timers are made only once the first attempt has missed: a
// reader over days already published never needs them.
func (s *DirSource) poll(ctx context.Context, day dates.Day, slot *daySlot) error {
	err := s.load(day, slot)
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	deadline := time.NewTimer(s.opt.ReadTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(s.opt.Poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return fmt.Errorf("%w (day %s after %v)", pipeline.ErrStale, day, s.opt.ReadTimeout)
		case <-tick.C:
		}
		if err := s.load(day, slot); !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
}

// load reads one complete day into slot, returning fs.ErrNotExist while
// the marker is absent. It is the only reader — the look-ahead and the
// poll loop both call it — and it uses nothing of s but dir.
func (s *DirSource) load(day dates.Day, slot *daySlot) error {
	marker, err := readFileInto(slot.marker, filepath.Join(s.dir, markerName(day)))
	if errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err != nil {
		return fmt.Errorf("stream: reading %s: %w", markerName(day), err)
	}
	slot.marker = marker
	slot.day.Day = day
	// Walk Archives up to its capacity, not its length, so a position that
	// a shorter day left unused still finds the buffer it had before.
	archives := slot.day.Archives[:cap(slot.day.Archives)]
	n := 0
	for len(marker) > 0 {
		line := marker
		if i := bytes.IndexByte(marker, '\n'); i >= 0 {
			line, marker = marker[:i], marker[i+1:]
		} else {
			marker = nil
		}
		f := bytes.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 3 {
			return corruptf("day marker %s: bad line %q", markerName(day), line)
		}
		var kind pipeline.ArchiveKind
		switch string(f[0]) {
		case "rib":
			kind = pipeline.KindRIB
		case "upd":
			kind = pipeline.KindUpdates
		default:
			return corruptf("day marker %s: unknown kind %q", markerName(day), f[0])
		}
		// The marker is input. Only a bare file name stays inside the
		// directory once joined onto it; a path or ".." would not.
		name := string(f[2])
		if filepath.Base(name) != name || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
			return corruptf("day marker %s: archive name %q is not a bare file name", markerName(day), name)
		}
		if n == len(archives) {
			archives = append(archives, pipeline.Archive{})
		}
		ar := &archives[n]
		if ar.Collector != string(f[1]) { // the comparison does not allocate; a new name does, once
			ar.Collector = string(f[1])
		}
		ar.Kind = kind
		ar.CollectorIdx = collectorIdx(archives[:n], kind, ar.Collector)
		n++
		if ar.Data, err = readFileInto(ar.Data, filepath.Join(s.dir, name)); err != nil {
			return fmt.Errorf("stream: reading %s: %w", name, err)
		}
	}
	slot.day.Archives = archives[:n]
	return nil
}

// collectorIdx numbers each kind's collectors in marker order: the index
// an earlier archive of the same kind and collector has, else the next.
func collectorIdx(earlier []pipeline.Archive, kind pipeline.ArchiveKind, collector string) int {
	next := 0
	for i := range earlier {
		switch ar := &earlier[i]; {
		case ar.Kind != kind:
		case ar.Collector == collector:
			return ar.CollectorIdx
		case ar.CollectorIdx >= next:
			next = ar.CollectorIdx + 1
		}
	}
	return next
}

// readFileInto reads the named file into buf's storage, which grows only
// when the file is larger than every file read into it before, and
// returns the bytes read — never any left from a longer earlier file.
func readFileInto(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	b := bytes.NewBuffer(buf[:0])
	if fi, err := f.Stat(); err == nil {
		// ReadFrom wants MinRead spare bytes to meet EOF without growing.
		b.Grow(int(fi.Size()) + bytes.MinRead)
	}
	_, err = b.ReadFrom(f)
	return b.Bytes(), err
}

// Reconnect implements Source: for a directory the connection is the
// directory's existence. A pending look-ahead read the directory as it
// was, so it is waited for and dropped.
func (s *DirSource) Reconnect(context.Context) error {
	s.drain()
	if _, err := os.Stat(s.dir); err != nil {
		return fmt.Errorf("stream: reconnect: %w", err)
	}
	return nil
}

// Close implements io.Closer. It returns once the look-ahead goroutine,
// if one is running, has delivered its outcome.
func (s *DirSource) Close() error {
	s.drain()
	return nil
}
