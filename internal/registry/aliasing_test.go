package registry

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/restore"
	"parallellives/internal/worldsim"
)

// TestTextSourceFilesValidUntilNext pins the textSource contract: the
// files a snapshot yields are the source's own File slots, valid until
// the next Next. Until then they must be independent of the source's
// reused renderer, parser and build scratch: we capture a day's regular
// file, recycle and scribble all three without calling Next, and assert
// the file renders to the same bytes. The next day's regular file must
// then be parsed into the same slot.
func TestTextSourceFilesValidUntilNext(t *testing.T) {
	w := smallWorld(t)
	a := Build(w)
	src := a.TextSource(asn.RIPENCC).(*textSource)

	// Find the first day with a regular file.
	var held *delegation.File
	for held == nil {
		snap, ok := src.Next()
		if !ok {
			t.Fatal("source exhausted before yielding a file")
		}
		held = snap.Regular
	}
	var rd delegation.Renderer
	before := append([]byte(nil), rd.Render(held)...)

	// Push another file through the renderer and the parser (recycling
	// the render buffer, the field scratch and the interning map), then
	// scribble the render buffer and the build scratch directly.
	other := &delegation.File{Version: "2", Registry: asn.ARIN, Serial: "20200102", ASNs: []delegation.Record{
		{Registry: asn.ARIN, CC: "US", ASN: 701, Count: 1, Status: delegation.StatusAssigned, OpaqueID: "other-org"},
	}}
	buf := src.rend.Render(other)
	if f, _ := src.reg.ParseLenient(buf); f == nil {
		t.Fatal("other file did not parse")
	}
	for i := range buf {
		buf[i] = '#'
	}
	for i := range src.scratch.recs {
		src.scratch.recs[i] = delegation.Record{}
	}
	for i := range src.scratch.summaries {
		src.scratch.summaries[i] = delegation.Summary{}
	}
	for i := range src.scratch.occupied {
		src.scratch.occupied[i] = 0
	}
	src.scratch.file = delegation.File{}

	after := rd.Render(held)
	if !bytes.Equal(before, after) {
		t.Fatal("held snapshot file changed before the next Next, after source scratch was recycled and scribbled")
	}

	for {
		snap, ok := src.Next()
		if !ok {
			t.Fatal("source exhausted before a second regular file")
		}
		if snap.Regular != nil {
			if snap.Regular != held {
				t.Fatal("next day's regular file is not parsed into the source's regular slot")
			}
			return
		}
	}
}

// readOnlySource wraps a Source and, at every Next, checks that the files
// it yielded the call before are still as it yielded them.
type readOnlySource struct {
	delegation.Source
	t         *testing.T
	held, was [2]*delegation.File
	files     int
}

func (s *readOnlySource) Next() (delegation.Snapshot, bool) {
	for i := range s.held {
		if !reflect.DeepEqual(s.held[i], s.was[i]) {
			s.t.Errorf("%s: a consumer wrote into a yielded file", s.Registry().Token())
		}
	}
	snap, ok := s.Source.Next()
	s.held = [2]*delegation.File{snap.Regular, snap.Extended}
	s.was = [2]*delegation.File{snap.Regular.Clone(), snap.Extended.Clone()}
	if snap.Regular != nil {
		s.files++
	}
	return snap, ok
}

// TestRestoreNeverWritesIntoSourceFiles: restoration only reads the files
// a source yields. A delegation.Series keeps the file it last yielded as
// the memory the next day's lines are compared against, so a write into
// it would leak into every later day parsed from unchanged lines.
func TestRestoreNeverWritesIntoSourceFiles(t *testing.T) {
	cfg := worldsim.DefaultConfig()
	cfg.Scale = 0.01
	cfg.Start, cfg.End = dates.MustParse("2007-06-01"), dates.MustParse("2009-06-01")
	a := Build(worldsim.Generate(cfg))
	var sources []delegation.Source
	var wrapped []*readOnlySource
	for _, r := range asn.All() {
		s := &readOnlySource{Source: a.TextSource(r), t: t}
		sources, wrapped = append(sources, s), append(wrapped, s)
	}
	res, err := restore.RestoreParallelContext(context.Background(), sources, a.ERXReference(), restore.Options{}, 2)
	if err != nil || len(res.Runs) == 0 {
		t.Fatalf("restore: %v, %d runs", err, len(res.Runs))
	}
	for _, s := range wrapped {
		if s.files < 300 {
			t.Errorf("%s: %d regular files read", s.Registry().Token(), s.files)
		}
	}
}
