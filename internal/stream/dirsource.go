package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parallellives/internal/dates"
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
func archiveName(d dates.Day, collector string, kind ArchiveKind) string {
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
		if err := writeFileAtomic(filepath.Join(w.dir, name), ar.Data); err != nil {
			return err
		}
		fmt.Fprintf(&manifest, "%s %s %s\n", ar.Kind, ar.Collector, name)
	}
	return writeFileAtomic(marker, []byte(manifest.String()))
}

func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".day-*.tmp")
	if err != nil {
		return fmt.Errorf("stream: dir writer: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: writing %s: %w", path, err)
	}
	return nil
}

// DirOptions tunes a DirSource's read behaviour.
type DirOptions struct {
	// ReadTimeout bounds one Next call's wait for the day marker to
	// appear (ris-live's --read-timeout); expiry returns ErrStale.
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
type DirSource struct {
	dir string
	opt DirOptions
}

// NewDirSource wraps the day directory.
func NewDirSource(dir string, opt DirOptions) *DirSource {
	return &DirSource{dir: dir, opt: opt.withDefaults()}
}

// Next implements Source: it waits for the marker of day after+1,
// polling until the read deadline (ErrStale) or ctx cancellation.
func (s *DirSource) Next(ctx context.Context, after dates.Day) (*Day, error) {
	day := after.AddDays(1)
	deadline := time.NewTimer(s.opt.ReadTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(s.opt.Poll)
	defer tick.Stop()
	for {
		d, err := s.load(day)
		if err == nil {
			return d, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline.C:
			return nil, fmt.Errorf("%w (day %s after %v)", ErrStale, day, s.opt.ReadTimeout)
		case <-tick.C:
		}
	}
}

// load reads one complete day, returning fs.ErrNotExist while the
// marker is absent.
func (s *DirSource) load(day dates.Day) (*Day, error) {
	mf, err := os.Open(filepath.Join(s.dir, markerName(day)))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	d := &Day{Day: day}
	collectorIdx := map[string]map[string]int{"rib": {}, "upd": {}}
	sc := bufio.NewScanner(mf)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var kindTok, collector, name string
		if _, err := fmt.Sscanf(line, "%s %s %s", &kindTok, &collector, &name); err != nil {
			return nil, corruptf("day marker %s: bad line %q", markerName(day), line)
		}
		var kind ArchiveKind
		switch kindTok {
		case "rib":
			kind = KindRIB
		case "upd":
			kind = KindUpdates
		default:
			return nil, corruptf("day marker %s: unknown kind %q", markerName(day), kindTok)
		}
		idxs := collectorIdx[kindTok]
		ci, ok := idxs[collector]
		if !ok {
			ci = len(idxs)
			idxs[collector] = ci
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, fmt.Errorf("stream: reading %s: %w", name, err)
		}
		d.Archives = append(d.Archives, Archive{
			Collector: collector, CollectorIdx: ci, Kind: kind, Data: data,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: reading %s: %w", markerName(day), err)
	}
	return d, nil
}

// Reconnect implements Source: for a directory the connection is the
// directory's existence.
func (s *DirSource) Reconnect(context.Context) error {
	if _, err := os.Stat(s.dir); err != nil {
		return fmt.Errorf("stream: reconnect: %w", err)
	}
	return nil
}

// Close implements io.Closer.
func (s *DirSource) Close() error { return nil }
