package stream

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"parallellives/internal/dates"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
)

func fastDirOptions() DirOptions {
	return DirOptions{ReadTimeout: 80 * time.Millisecond, Poll: time.Millisecond}
}

func testDay(d dates.Day, tag byte) *Day {
	return DayFromMRT(d,
		[][]byte{{tag, 0x01}, {tag, 0x02}},
		[][]byte{{tag, 0x11}, {tag, 0x12}})
}

func TestDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := dates.MustParse("2006-01-01")
	for i := 0; i < 3; i++ {
		if err := w.WriteDay(testDay(start.AddDays(i), byte(i))); err != nil {
			t.Fatal(err)
		}
	}

	s := NewDirSource(dir, fastDirOptions())
	defer s.Close()
	last := start.AddDays(-1)
	for i := 0; i < 3; i++ {
		got, err := s.Next(context.Background(), last)
		if err != nil {
			t.Fatalf("Next after %s: %v", last, err)
		}
		want := testDay(start.AddDays(i), byte(i))
		if got.Day != want.Day || len(got.Archives) != len(want.Archives) {
			t.Fatalf("day %d: got %s/%d archives, want %s/%d", i, got.Day, len(got.Archives), want.Day, len(want.Archives))
		}
		for j, ar := range got.Archives {
			w := want.Archives[j]
			if ar.Collector != w.Collector || ar.CollectorIdx != w.CollectorIdx || ar.Kind != w.Kind || !bytes.Equal(ar.Data, w.Data) {
				t.Fatalf("day %d archive %d: got %+v, want %+v", i, j, ar, w)
			}
		}
		last = got.Day
	}
}

func TestDirSourceStale(t *testing.T) {
	s := NewDirSource(t.TempDir(), fastDirOptions())
	_, err := s.Next(context.Background(), dates.MustParse("2006-01-01"))
	if !errors.Is(err, pipeline.ErrStale) {
		t.Fatalf("Next on empty dir = %v, want pipeline.ErrStale", err)
	}
}

// TestDirSourceIncompleteDayInvisible proves the marker protocol: a day
// whose archives exist but whose marker has not landed is not delivered.
func TestDirSourceIncompleteDayInvisible(t *testing.T) {
	dir := t.TempDir()
	day := dates.MustParse("2006-01-01")
	if err := os.WriteFile(filepath.Join(dir, archiveName(day, "rrc00", pipeline.KindRIB)), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewDirSource(dir, fastDirOptions())
	if _, err := s.Next(context.Background(), day.AddDays(-1)); !errors.Is(err, pipeline.ErrStale) {
		t.Fatalf("Next with archives but no marker = %v, want pipeline.ErrStale", err)
	}
}

func TestDirSourceCancel(t *testing.T) {
	s := NewDirSource(t.TempDir(), DirOptions{ReadTimeout: time.Hour, Poll: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if _, err := s.Next(ctx, dates.MustParse("2006-01-01")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestDirWriterIdempotent(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	day := testDay(dates.MustParse("2006-01-01"), 9)
	if err := w.WriteDay(day); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadDir(dir)
	if err := w.WriteDay(day); err != nil {
		t.Fatalf("re-writing a published day: %v", err)
	}
	after, _ := os.ReadDir(dir)
	if len(before) != len(after) {
		t.Fatalf("re-write changed the directory: %d -> %d entries", len(before), len(after))
	}
}

// TestDirSourceCorruptMarker: a marker is input, so a line that is not
// "<kind> <collector> <bare file name>" is corruption, not staleness — in
// particular a name that would make load read outside the directory.
func TestDirSourceCorruptMarker(t *testing.T) {
	// The file the hostile names point at exists and is readable, so only
	// the name check stands between the marker and its bytes.
	outside := t.TempDir()
	secret := filepath.Join(outside, "secret")
	if err := os.WriteFile(secret, []byte("outside the archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(outside, "days")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	day := dates.MustParse("2006-01-01")
	for name, marker := range map[string]string{
		"two fields":    "rib only-two-fields\n",
		"four fields":   "rib rrc00 a.mrt b.mrt\n",
		"unknown kind":  "bib rrc00 a.mrt\n",
		"parent path":   "rib rrc00 ../secret\n",
		"nested path":   "rib rrc00 sub/../../secret\n",
		"absolute path": "rib rrc00 " + secret + "\n",
		"dot dot":       "rib rrc00 ..\n",
		"empty name":    "rib rrc00 \n",
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(filepath.Join(dir, markerName(day)), []byte(marker), 0o644); err != nil {
				t.Fatal(err)
			}
			s := NewDirSource(dir, fastDirOptions())
			defer s.Close()
			d, err := s.Next(context.Background(), day.AddDays(-1))
			if !errors.Is(err, lifestore.ErrCorrupt) {
				t.Fatalf("Next over marker %q = %+v, %v; want lifestore.ErrCorrupt", marker, d, err)
			}
		})
	}
}

func TestDirSourceReconnect(t *testing.T) {
	dir := t.TempDir()
	s := NewDirSource(dir, fastDirOptions())
	if err := s.Reconnect(context.Background()); err != nil {
		t.Fatalf("Reconnect over live dir: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Reconnect(context.Background()); err == nil {
		t.Fatal("Reconnect over removed dir succeeded")
	}
}

// patternDay builds a day with len(sizes)/2 collectors whose archives
// have the given byte lengths (RIBs first, as DayFromMRT orders them) and
// contents that differ per day, archive and offset, so bytes delivered
// under the wrong identity or left over from another file never compare
// equal.
func patternDay(d dates.Day, sizes ...int) *Day {
	archives := make([][]byte, len(sizes))
	for i, n := range sizes {
		archives[i] = make([]byte, n)
		for j := range archives[i] {
			archives[i][j] = byte(int(d)*31 + i*7 + j)
		}
	}
	return DayFromMRT(d, archives[:len(sizes)/2], archives[len(sizes)/2:])
}

func writeDays(dir string, days ...*Day) error {
	w, err := NewDirWriter(dir)
	if err != nil {
		return err
	}
	for _, d := range days {
		if err := w.WriteDay(d); err != nil {
			return err
		}
	}
	return nil
}

func publish(t *testing.T, dir string, days ...*Day) {
	t.Helper()
	if err := writeDays(dir, days...); err != nil {
		t.Fatal(err)
	}
}

// sameAsFiles checks a delivered day against the day that was published
// and against plain reads of its files.
func sameAsFiles(t *testing.T, dir string, got, want *Day) {
	t.Helper()
	if got.Day != want.Day || len(got.Archives) != len(want.Archives) {
		t.Fatalf("got day %s with %d archives, want %s with %d", got.Day, len(got.Archives), want.Day, len(want.Archives))
	}
	for i, ar := range got.Archives {
		w := want.Archives[i]
		if ar.Collector != w.Collector || ar.CollectorIdx != w.CollectorIdx || ar.Kind != w.Kind {
			t.Fatalf("day %s archive %d is %s/%d/%s, want %s/%d/%s", got.Day, i,
				ar.Collector, ar.CollectorIdx, ar.Kind, w.Collector, w.CollectorIdx, w.Kind)
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, archiveName(want.Day, w.Collector, w.Kind)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ar.Data, onDisk) || !bytes.Equal(ar.Data, w.Data) {
			t.Fatalf("day %s archive %d: %d bytes delivered differ from the %d on disk", got.Day, i, len(ar.Data), len(onDisk))
		}
	}
}

// awaitReadAhead returns once the pending look-ahead has finished, so a
// test can order what it does next after it.
func awaitReadAhead(t *testing.T, s *DirSource) {
	t.Helper()
	if !s.pending {
		t.Fatal("no look-ahead pending")
	}
	for deadline := time.Now().Add(5 * time.Second); len(s.ahead) == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("look-ahead did not finish")
		}
	}
}

// TestDirSourceReadAheadMatchesPlainReads: reading one day ahead into
// recycled buffers delivers exactly what os.ReadFile of each archive
// does, in marker order and under the same identity, over a window whose
// days gain and lose collectors and whose files grow, shrink and empty —
// so no slot hands out bytes a longer earlier file left behind. Each day
// is checked twice: when delivered, while the look-ahead for the next is
// filling the other slot, and again just before it is given up.
func TestDirSourceReadAheadMatchesPlainReads(t *testing.T) {
	dir := t.TempDir()
	start := dates.MustParse("2006-01-01")
	sizes := [][]int{
		{100, 200, 300, 400},
		{70000, 5000, 3, 90000, 1, 2},
		{10, 20},
		{0, 64, 4096, 0},
		{300, 299, 298, 297, 296, 295},
		{1 << 17, 1},
		{5, 6, 7, 8},
		{5, 6, 7, 8},
	}
	want := make([]*Day, len(sizes))
	for i, sz := range sizes {
		want[i] = patternDay(start.AddDays(i), sz...)
	}
	publish(t, dir, want...)

	s := NewDirSource(dir, fastDirOptions())
	defer s.Close()
	last := start.AddDays(-1)
	var held *Day
	for i := range want {
		if held != nil {
			sameAsFiles(t, dir, held, want[i-1])
		}
		got, err := s.Next(context.Background(), last)
		if err != nil {
			t.Fatalf("Next after %s: %v", last, err)
		}
		sameAsFiles(t, dir, got, want[i])
		held, last = got, got.Day
	}
}

// TestDirSourceTailFollow: at the head of a live directory the look-ahead
// misses, and that costs nothing: a day published afterwards is still
// delivered — at once when it is there by the time Next asks, within the
// poll loop when it lands while Next waits — and with a missed look-ahead
// behind it Next goes stale and honours cancellation as it always did.
func TestDirSourceTailFollow(t *testing.T) {
	dir := t.TempDir()
	start := dates.MustParse("2006-01-01")
	days := []*Day{
		patternDay(start, 10, 20, 30, 40),
		patternDay(start.AddDays(1), 1000, 2000, 3000, 4000),
		patternDay(start.AddDays(2), 5, 6, 7, 8),
	}
	publish(t, dir, days[0])
	s := NewDirSource(dir, DirOptions{ReadTimeout: 10 * time.Second, Poll: time.Millisecond})
	defer s.Close()
	ctx := context.Background()

	got, err := s.Next(ctx, start.AddDays(-1))
	if err != nil {
		t.Fatal(err)
	}
	sameAsFiles(t, dir, got, days[0])

	// Day 2 lands after the look-ahead for it has come back empty.
	awaitReadAhead(t, s)
	publish(t, dir, days[1])
	if got, err = s.Next(ctx, days[0].Day); err != nil {
		t.Fatal(err)
	}
	sameAsFiles(t, dir, got, days[1])

	// Day 3 lands while Next is already polling for it.
	awaitReadAhead(t, s)
	published := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		published <- writeDays(dir, days[2])
	}()
	got, err = s.Next(ctx, days[1].Day)
	if werr := <-published; werr != nil || err != nil {
		t.Fatal(werr, err)
	}
	sameAsFiles(t, dir, got, days[2])

	// Nothing follows day 3.
	s.opt.ReadTimeout = 80 * time.Millisecond
	if _, err := s.Next(ctx, days[2].Day); !errors.Is(err, pipeline.ErrStale) {
		t.Fatalf("Next past the head = %v, want pipeline.ErrStale", err)
	}
	s.opt.ReadTimeout = time.Hour
	cctx, cancel := context.WithCancel(ctx)
	go cancel()
	if _, err := s.Next(cctx, days[2].Day); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next past the head with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestDirSourceRewind: Source lets a caller ask again for an earlier day
// (a reconnect rewound its cursor). The look-ahead pending then is for a
// later day; it is dropped, not delivered, and reading goes on from the
// rewound position.
func TestDirSourceRewind(t *testing.T) {
	dir := t.TempDir()
	start := dates.MustParse("2006-01-01")
	want := []*Day{
		patternDay(start, 100, 200, 300, 400),
		patternDay(start.AddDays(1), 4000, 3000, 2000, 1000),
		patternDay(start.AddDays(2), 50, 60, 70, 80),
		patternDay(start.AddDays(3), 9, 9, 9, 9),
	}
	publish(t, dir, want...)
	s := NewDirSource(dir, fastDirOptions())
	defer s.Close()
	for _, i := range []int{0, 1, 0, 1, 2, 0, 3} { // the look-ahead holds day i+1 each time
		got, err := s.Next(context.Background(), want[i].Day.AddDays(-1))
		if err != nil {
			t.Fatalf("Next for %s: %v", want[i].Day, err)
		}
		sameAsFiles(t, dir, got, want[i])
	}
}

// TestDirSourceReadAheadErrorIsTheSynchronousError: a day the look-ahead
// could not load is loaded again by the Next that asks for it, so the
// caller gets the error a source that never looked ahead returns.
func TestDirSourceReadAheadErrorIsTheSynchronousError(t *testing.T) {
	dir := t.TempDir()
	start := dates.MustParse("2006-01-01")
	publish(t, dir, testDay(start, 1), testDay(start.AddDays(1), 2), testDay(start.AddDays(2), 3))
	marker := filepath.Join(dir, markerName(start.AddDays(1)))
	if err := os.Truncate(marker, 7); err != nil { // "rib rrc": cut inside the first line
		t.Fatal(err)
	}

	plain := NewDirSource(dir, fastDirOptions())
	defer plain.Close()
	_, want := plain.Next(context.Background(), start) // no look-ahead before a source's first Next
	if !errors.Is(want, lifestore.ErrCorrupt) {
		t.Fatalf("Next over a truncated marker = %v, want lifestore.ErrCorrupt", want)
	}

	s := NewDirSource(dir, fastDirOptions())
	defer s.Close()
	if _, err := s.Next(context.Background(), start.AddDays(-1)); err != nil {
		t.Fatal(err)
	}
	awaitReadAhead(t, s)
	_, err := s.Next(context.Background(), start)
	if err == nil || err.Error() != want.Error() || !errors.Is(err, lifestore.ErrCorrupt) {
		t.Fatalf("Next after a failed look-ahead = %v, want %v", err, want)
	}
	// The failure is not sticky: once the day is whole, Next delivers it.
	if err := os.Remove(marker); err != nil {
		t.Fatal(err)
	}
	publish(t, dir, testDay(start.AddDays(1), 2))
	got, err := s.Next(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFiles(t, dir, got, testDay(start.AddDays(1), 2))
}

// TestDirSourceSteadyStateAllocations: once both slots have seen a day,
// Next allocates nothing the size of an archive — what is left is what
// opening and stat-ing a file costs, a few small objects per file.
func TestDirSourceSteadyStateAllocations(t *testing.T) {
	dir := t.TempDir()
	start := dates.MustParse("2006-01-01")
	const size, runs, warm = 256 << 10, 10, 3
	for i := 0; i < warm+runs+1; i++ {
		publish(t, dir, patternDay(start.AddDays(i), size, size, size, size))
	}
	s := NewDirSource(dir, fastDirOptions())
	defer s.Close()
	last := start.AddDays(-1)
	next := func() {
		d, err := s.Next(context.Background(), last)
		if err != nil {
			t.Fatal(err)
		}
		last = d.Day
	}
	for i := 0; i < warm; i++ {
		next()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, next) // counts the look-ahead goroutine's allocations too
	runtime.ReadMemStats(&after)
	if perDay := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perDay > size/8 {
		t.Errorf("a steady-state Next allocates %d bytes, want far less than one %d-byte archive", perDay, size)
	}
	if limit := float64(5 * 12); allocs > limit { // five files a day: the marker and four archives
		t.Errorf("a steady-state Next allocates %.0f times, want at most %.0f", allocs, limit)
	}
}

// TestDirSourceCloseEndsReadAhead: Close returns with the look-ahead
// goroutine done, and a source dropped without Close leaves none running
// either — its look-ahead finishes into a buffered channel.
func TestDirSourceCloseEndsReadAhead(t *testing.T) {
	dir := t.TempDir()
	start := dates.MustParse("2006-01-01")
	publish(t, dir, patternDay(start, 1<<16, 1<<16), patternDay(start.AddDays(1), 1<<16, 1<<16))
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := NewDirSource(dir, fastDirOptions())
		if _, err := s.Next(context.Background(), start.AddDays(-1)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			continue // dropped
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s.pending {
			t.Fatal("Close left a look-ahead pending")
		}
		if err := s.Close(); err != nil { // nothing to wait for the second time
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the sources were made", runtime.NumGoroutine(), base)
		}
	}
}
