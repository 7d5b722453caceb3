package stream

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/pipeline"
)

// TestCrashEquivalence is the robustness property this package exists
// for: tailing a window one day at a time — killed and restarted at
// arbitrary day boundaries, killed mid-checkpoint-write at both commit
// stages, and recovering from a corrupted-on-disk checkpoint — produces
// a lifestore snapshot byte-identical to a single batch pipeline.Run
// over the same options. Verified on clean inputs and with the fault
// storm injected (chaos mode), where the crash-restart accounting is
// hardest: re-scanned days re-mangle on the live injector, and the
// checkpointed per-day deltas must keep the Health report exact.
func TestCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("crash equivalence tails a 60-day window several times")
	}
	clean := tinyOptions()
	chaos := clean
	storm := faults.DefaultStorm(11)
	chaos.Inject = &storm
	chaos.FaultPolicy = faults.Degrade

	t.Run("clean", func(t *testing.T) { crashEquivalence(t, clean) })
	t.Run("chaos", func(t *testing.T) { crashEquivalence(t, chaos) })
}

func crashEquivalence(t *testing.T, opts pipeline.Options) {
	want := batchBytes(t, opts)

	// Render the whole window into a day directory up front — the feed
	// the killed-and-restarted tailers keep coming back to.
	feedDir := t.TempDir()
	w, err := NewDirWriter(feedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range renderWindow(t, opts.World) {
		if err := w.WriteDay(d); err != nil {
			t.Fatal(err)
		}
	}

	ckptDir := t.TempDir()
	day := func(n int) dates.Day { return opts.World.Start.AddDays(n - 1) } // day(1) = first day
	errKill := errors.New("kill -9")

	newTailer := func() *Tailer {
		t.Helper()
		tl, err := NewTailer(Options{
			Pipeline:      opts,
			Source:        NewDirSource(feedDir, fastDirOptions()),
			CheckpointDir: ckptDir,
			SnapshotEvery: 100, // only the final day publishes
			Reconnect:     fastReconnect(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	killAt := func(d dates.Day) func(dates.Day) error {
		return func(committed dates.Day) error {
			if committed == d {
				return errKill
			}
			return nil
		}
	}

	// Incarnation 1: killed cleanly at the day-10 boundary.
	tl := newTailer()
	tl.afterCommit = killAt(day(10))
	if err := tl.Run(context.Background()); !errors.Is(err, errKill) {
		t.Fatalf("incarnation 1 = %v, want kill", err)
	}

	// Bit-rot between incarnations: the committed checkpoint is damaged
	// on disk. Recovery must classify it and fall back to the previous
	// generation (day 9), then re-scan day 10 idempotently.
	b, err := os.ReadFile(tl.journal.Path())
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(tl.journal.Path(), b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: recovers from the corruption, then dies mid-commit
	// with the temp file half-written (crash stage "temp") at day 20.
	tl = newTailer()
	if rec := tl.Recovery(); rec.CorruptCheckpoints != 1 || !rec.UsedPrev {
		t.Fatalf("incarnation 2 recovery = %+v, want corrupt main + prev fallback", rec)
	}
	if got := tl.ckpt.LastDay; got != day(9) {
		t.Fatalf("incarnation 2 resumes after %s, want day 9 %s", got, day(9))
	}
	tl.journal.failpoint = func(stage string) error {
		if stage == "temp" && tl.last == day(20) {
			return errKill
		}
		return nil
	}
	if err := tl.Run(context.Background()); !errors.Is(err, errKill) {
		t.Fatalf("incarnation 2 = %v, want kill", err)
	}

	// Incarnation 3: sweeps up the torn temp (day 20 was never
	// committed, so it is re-scanned), then dies mid-commit after the
	// rotate (crash stage "rotate") at day 30 — the window where the
	// directory holds only the previous generation.
	tl = newTailer()
	if rec := tl.Recovery(); rec.TornTemps != 1 || rec.UsedPrev || rec.Fresh {
		t.Fatalf("incarnation 3 recovery = %+v, want one torn temp", rec)
	}
	if got := tl.ckpt.LastDay; got != day(19) {
		t.Fatalf("incarnation 3 resumes after %s, want day 19 %s", got, day(19))
	}
	tl.journal.failpoint = func(stage string) error {
		if stage == "rotate" && tl.last == day(30) {
			return errKill
		}
		return nil
	}
	if err := tl.Run(context.Background()); !errors.Is(err, errKill) {
		t.Fatalf("incarnation 3 = %v, want kill", err)
	}

	// Incarnation 4: only the rotated previous generation (day 29)
	// survived the rotate crash; day 30 re-scans. Killed once more at an
	// arbitrary later boundary for good measure.
	tl = newTailer()
	if rec := tl.Recovery(); !rec.UsedPrev {
		t.Fatalf("incarnation 4 recovery = %+v, want prev fallback", rec)
	}
	if got := tl.ckpt.LastDay; got != day(29) {
		t.Fatalf("incarnation 4 resumes after %s, want day 29 %s", got, day(29))
	}
	tl.afterCommit = killAt(day(47))
	if err := tl.Run(context.Background()); !errors.Is(err, errKill) {
		t.Fatalf("incarnation 4 = %v, want kill", err)
	}

	// Incarnation 5: runs the window out.
	tl = newTailer()
	if rec := tl.Recovery(); rec.Fresh || rec.UsedPrev || rec.TornTemps != 0 || rec.CorruptCheckpoints != 0 {
		t.Fatalf("incarnation 5 recovery = %+v, want clean resume", rec)
	}
	if err := tl.Run(context.Background()); err != nil {
		t.Fatalf("final incarnation: %v", err)
	}
	st := tl.Status()
	if st.IngestLagDays != 0 {
		t.Errorf("final lag = %d days, want 0", st.IngestLagDays)
	}

	got := snapshotBytes(t, tl)
	if !bytes.Equal(got, want) {
		t.Fatalf("crash-restart tail diverged from batch: %d vs %d bytes", len(got), len(want))
	}
}
