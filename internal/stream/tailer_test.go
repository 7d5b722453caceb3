package stream

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"parallellives/internal/bgpscan"
	"parallellives/internal/collector"
	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/pipeline"
	"parallellives/internal/worldsim"
)

// tinyWorld is a 60-day window (worldsim needs > 40 days to plant its
// anomalies) small enough for unit tests to tail and batch-build
// repeatedly.
func tinyWorld() worldsim.Config {
	return worldsim.Config{
		Seed:              7,
		Start:             dates.MustParse("2006-01-01"),
		End:               dates.MustParse("2006-03-01"),
		Scale:             0.05,
		Collectors:        2,
		PeersPerCollector: 3,
	}
}

func tinyOptions() pipeline.Options {
	return pipeline.Options{World: tinyWorld(), Wire: true, Workers: 2}
}

// renderWindow renders every day of the config's window the way the
// simulated collector infrastructure publishes it.
func renderWindow(t *testing.T, cfg worldsim.Config) []*Day {
	t.Helper()
	inf := collector.New(worldsim.Generate(cfg))
	var days []*Day
	it := inf.IterRange(cfg.Start, cfg.End)
	for it.Next() {
		ribs, upds, err := it.MRT()
		if err != nil {
			t.Fatalf("rendering day %s: %v", it.Day(), err)
		}
		days = append(days, DayFromMRT(it.Day(), ribs, upds))
	}
	return days
}

// batchBytes is the ground truth: the encoded snapshot of a single
// batch pipeline.Run over the options.
func batchBytes(t *testing.T, opts pipeline.Options) []byte {
	t.Helper()
	ds, err := pipeline.Run(opts)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	b, err := lifestore.Encode(ds.Snapshot())
	if err != nil {
		t.Fatalf("encoding batch snapshot: %v", err)
	}
	return b
}

func snapshotBytes(t *testing.T, tl *Tailer) []byte {
	t.Helper()
	snap, _ := tl.Snapshot()
	if snap == nil {
		t.Fatal("tailer published no snapshot")
	}
	b, err := lifestore.Encode(snap)
	if err != nil {
		t.Fatalf("encoding tailer snapshot: %v", err)
	}
	return b
}

// fakeEvent scripts one Next call: an error to return, or a specific
// day to (re-)deliver instead of the natural next one.
type fakeEvent struct {
	err error
	day *Day
}

// fakeSource serves rendered days from memory, optionally detouring
// through a script of faults and re-deliveries first.
type fakeSource struct {
	days       map[dates.Day]*Day
	script     []fakeEvent
	reconnects int
	closed     bool
}

func newFakeSource(days []*Day, script ...fakeEvent) *fakeSource {
	m := make(map[dates.Day]*Day, len(days))
	for _, d := range days {
		m[d.Day] = d
	}
	return &fakeSource{days: m, script: script}
}

func (f *fakeSource) Next(ctx context.Context, after dates.Day) (*Day, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(f.script) > 0 {
		ev := f.script[0]
		f.script = f.script[1:]
		if ev.err != nil {
			return nil, ev.err
		}
		if ev.day != nil {
			return ev.day, nil
		}
	}
	d, ok := f.days[after.AddDays(1)]
	if !ok {
		return nil, pipeline.ErrStale
	}
	return d, nil
}

func (f *fakeSource) Reconnect(context.Context) error {
	f.reconnects++
	return nil
}

func (f *fakeSource) Close() error {
	f.closed = true
	return nil
}

// fastReconnect is a reconnect policy whose waits are injected no-ops.
func fastReconnect(attempts int) faults.RetryPolicy {
	return faults.RetryPolicy{
		MaxAttempts: attempts,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
}

func TestTailerMatchesBatch(t *testing.T) {
	opts := tinyOptions()
	days := renderWindow(t, opts.World)
	want := batchBytes(t, opts)

	var published int
	tl, err := NewTailer(Options{
		Pipeline:      opts,
		Source:        newFakeSource(days),
		CheckpointDir: t.TempDir(),
		SnapshotEvery: 4,
		Reconnect:     fastReconnect(3),
		OnSnapshot:    func(dates.Day, *lifestore.Snapshot) { published++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Recovery().Fresh {
		t.Fatalf("fresh dir recovery = %+v", tl.Recovery())
	}
	if err := tl.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := snapshotBytes(t, tl); !bytes.Equal(got, want) {
		t.Fatalf("tailed snapshot differs from batch: %d vs %d bytes", len(got), len(want))
	}
	// 60 days at every-4 cadence: the final day lands on the cadence.
	if published != 15 {
		t.Errorf("published %d snapshots, want 15", published)
	}
	st := tl.Status()
	if st.DaysCommitted != 60 || st.IngestLagDays != 0 || !st.Healthy {
		t.Errorf("final status = %+v", st)
	}
}

func TestTailerStaleTriggersReconnect(t *testing.T) {
	opts := tinyOptions()
	days := renderWindow(t, opts.World)
	want := batchBytes(t, opts)

	src := newFakeSource(days,
		fakeEvent{err: pipeline.ErrStale},
		fakeEvent{err: pipeline.ErrStale},
	)
	tl, err := NewTailer(Options{
		Pipeline:      opts,
		Source:        src,
		CheckpointDir: t.TempDir(),
		SnapshotEvery: 100, // only the final publish
		Reconnect:     fastReconnect(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if src.reconnects != 2 {
		t.Errorf("source reconnects = %d, want 2", src.reconnects)
	}
	st := tl.Status()
	if st.StaleReads != 2 || st.Reconnects != 2 {
		t.Errorf("status = %+v, want 2 stale reads / 2 reconnects", st)
	}
	if !st.Healthy {
		t.Error("tailer unhealthy after recovering from staleness")
	}
	if got := snapshotBytes(t, tl); !bytes.Equal(got, want) {
		t.Fatal("snapshot after reconnects differs from batch")
	}
}

// TestTailerGivesUpWhenStaleForever proves the watchdog's bound: a
// source that never recovers exhausts the reconnect ladder and Run
// fails with faults.ErrRetriesExhausted instead of spinning.
func TestTailerGivesUpWhenStaleForever(t *testing.T) {
	tl, err := NewTailer(Options{
		Pipeline:      tinyOptions(),
		Source:        newFakeSource(nil), // no days: every read is stale
		CheckpointDir: t.TempDir(),
		Reconnect:     fastReconnect(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tl.Run(context.Background())
	if !errors.Is(err, faults.ErrRetriesExhausted) {
		t.Fatalf("Run over dead source = %v, want ErrRetriesExhausted", err)
	}
	if tl.Status().Healthy {
		t.Error("tailer still marked healthy after giving up")
	}
}

// TestTailerSkipsRedeliveredDays proves idempotency: a source that
// rewinds and re-delivers committed days changes nothing but the skip
// counter.
func TestTailerSkipsRedeliveredDays(t *testing.T) {
	opts := tinyOptions()
	days := renderWindow(t, opts.World)
	want := batchBytes(t, opts)

	// After days 1..3 are served naturally, re-deliver day 1 and day 3,
	// then resume the natural feed.
	src := newFakeSource(days,
		fakeEvent{}, fakeEvent{}, fakeEvent{},
		fakeEvent{day: days[0]},
		fakeEvent{day: days[2]},
	)
	tl, err := NewTailer(Options{
		Pipeline:      opts,
		Source:        src,
		CheckpointDir: t.TempDir(),
		SnapshotEvery: 100,
		Reconnect:     fastReconnect(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := tl.Status(); st.DaysSkipped != 2 || st.DaysCommitted != 60 {
		t.Errorf("status = %+v, want 2 skipped / 60 committed", st)
	}
	if got := snapshotBytes(t, tl); !bytes.Equal(got, want) {
		t.Fatal("snapshot after re-deliveries differs from batch")
	}
}

// TestTailerRejectsGap: a source that jumps over a day is broken, not
// recoverable — the carry would silently miss data.
func TestTailerRejectsGap(t *testing.T) {
	opts := tinyOptions()
	days := renderWindow(t, opts.World)
	src := newFakeSource(days, fakeEvent{day: days[5]}) // first delivery skips days 1-5
	tl, err := NewTailer(Options{
		Pipeline:      opts,
		Source:        src,
		CheckpointDir: t.TempDir(),
		Reconnect:     fastReconnect(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tl.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("Run over gapped source = %v, want contiguity error", err)
	}
}

// TestTailerFingerprintMismatch: resuming a checkpoint written under a
// different configuration must fail loudly at construction.
func TestTailerFingerprintMismatch(t *testing.T) {
	opts := tinyOptions()
	days := renderWindow(t, opts.World)
	dir := t.TempDir()

	tl, err := NewTailer(Options{
		Pipeline:      opts,
		Source:        newFakeSource(days),
		CheckpointDir: dir,
		Reconnect:     fastReconnect(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}

	other := opts
	other.World.Seed = 99
	_, err = NewTailer(Options{
		Pipeline:      other,
		Source:        newFakeSource(days),
		CheckpointDir: dir,
		Reconnect:     fastReconnect(2),
	})
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("NewTailer over foreign checkpoint = %v, want fingerprint error", err)
	}
}

// TestFingerprintPinned: a journal written by an earlier build resumes
// under this one. The constant is the hash of these options from a build
// that still read TextFiles (then true in DefaultOptions); the field no
// longer changes the hash.
func TestFingerprintPinned(t *testing.T) {
	opts := pipeline.DefaultOptions()
	opts.World.Scale = 0.01
	opts.World.Start = dates.MustParse("2004-01-01")
	opts.World.End = dates.MustParse("2004-03-31")
	const want = 0xd33289709a5da0ab
	for _, text := range []bool{true, false} {
		opts.TextFiles = text
		if got := Fingerprint(opts); got != want {
			t.Errorf("TextFiles=%v: fingerprint %#x, want %#x", text, got, uint64(want))
		}
	}
}

// TestTailerTraceBounded pins that a long tail does not grow the process
// trace: after a 60-day tail publishing every day, the tracer holds as
// many roots as it did at the first publish.
func TestTailerTraceBounded(t *testing.T) {
	opts := tinyOptions()
	o := obs.New()
	first := -1
	tl, err := NewTailer(Options{
		Pipeline:      opts,
		Source:        newFakeSource(renderWindow(t, opts.World)),
		CheckpointDir: t.TempDir(),
		SnapshotEvery: 1,
		Reconnect:     fastReconnect(3),
		Obs:           o,
		OnSnapshot: func(dates.Day, *lifestore.Snapshot) {
			if first < 0 {
				first = len(o.Tracer.Roots())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := tl.Status(); st.DaysCommitted != 60 {
		t.Fatalf("committed %d days, want 60", st.DaysCommitted)
	}
	if got := len(o.Tracer.Roots()); first <= 0 || got != first {
		t.Fatalf("tracer roots: %d after the first publish, %d after 60; want the same, non-zero", first, got)
	}
}

// TestTailerDrain: cancelling the context mid-tail commits what is in
// flight, publishes the committed state, and returns nil.
func TestTailerDrain(t *testing.T) {
	opts := tinyOptions()
	days := renderWindow(t, opts.World)

	ctx, cancel := context.WithCancel(context.Background())
	tl, err := NewTailer(Options{
		Pipeline:      opts,
		Source:        newFakeSource(days),
		CheckpointDir: t.TempDir(),
		SnapshotEvery: 100,
		Reconnect:     fastReconnect(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel after the 5th committed day.
	tl.afterCommit = func(d dates.Day) error {
		if d == opts.World.Start.AddDays(4) {
			cancel()
		}
		return nil
	}
	if err := tl.Run(ctx); err != nil {
		t.Fatalf("drained Run = %v, want nil", err)
	}
	st := tl.Status()
	if !st.Draining || st.DaysCommitted != 5 {
		t.Fatalf("post-drain status = %+v, want draining with 5 committed", st)
	}
	snap, day := tl.Snapshot()
	if snap == nil || day != opts.World.Start.AddDays(4) {
		t.Fatalf("drain published day %v, want the 5th day", day)
	}
}

// TestTailerOneScannerMatchesFreshScanners: the tailer scans every day
// with one scanner, whose attribute table carries blocks from day to
// day. After every day its checkpoint must be byte-identical to the one
// a fresh scanner per day yields, on clean input and under the fault
// storm.
func TestTailerOneScannerMatchesFreshScanners(t *testing.T) {
	clean := tinyOptions()
	chaos := clean
	storm := faults.DefaultStorm(11)
	chaos.Inject = &storm
	chaos.FaultPolicy = faults.Degrade
	for _, tc := range []struct {
		name string
		opts pipeline.Options
	}{{"clean", clean}, {"chaos", chaos}} {
		t.Run(tc.name, func(t *testing.T) {
			encode := func(last dates.Day, op pipeline.OpAccount, carry *bgpscan.Activity) []byte {
				return (&Checkpoint{LastDay: last, Op: op, Carry: carry}).Encode()
			}
			base, err := pipeline.BuildBase(context.Background(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			carry, op := bgpscan.NewPartial(), pipeline.OpAccount{}
			for _, dd := range renderWindow(t, tc.opts.World) {
				s := base.NewScanner()
				acc, err := base.ScanDay(s, dd)
				if err != nil {
					t.Fatal(err)
				}
				carry.Absorb(s.TakePartial())
				op.Add(acc)
				want = append(want, encode(dd.Day, op, carry))
			}

			tl, err := NewTailer(Options{
				Pipeline:      tc.opts,
				Source:        newFakeSource(renderWindow(t, tc.opts.World)),
				CheckpointDir: t.TempDir(),
				SnapshotEvery: 100,
				Reconnect:     fastReconnect(3),
			})
			if err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			tl.afterCommit = func(d dates.Day) error {
				got = append(got, encode(d, tl.op, tl.carry))
				return nil
			}
			if err := tl.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) < 30 {
				t.Fatalf("%d days committed, want %d (at least 30)", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("day %d: the one scanner's checkpoint differs from fresh scanners'", i+1)
				}
			}
			if st := tl.scan.TableStats(); st.Carried == 0 {
				t.Fatalf("no block carried across days: %+v", st)
			}
		})
	}
}
