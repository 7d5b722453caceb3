package stream

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"parallellives/internal/bgpscan"
	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/pipeline"
)

// Options configures a Tailer.
type Options struct {
	// Pipeline is the run configuration the tail must converge with: the
	// final snapshot of a full tail is byte-identical to pipeline.Run
	// over these options. Wire is forced on — a tailer consumes MRT
	// bytes, there is no direct-observation streaming path.
	Pipeline pipeline.Options
	// Source yields complete days. Required.
	Source pipeline.Source
	// CheckpointDir holds the checkpoint journal. Required.
	CheckpointDir string
	// SnapshotPath, when set, is where each published snapshot is saved
	// (atomically, via lifestore.SaveSnapshot).
	SnapshotPath string
	// SnapshotEvery publishes a full snapshot every N committed days
	// (default 1). The final day of the window always publishes.
	SnapshotEvery int
	// Reconnect paces Source.Reconnect after staleness or transport
	// errors (zero fields take faults defaults). When the policy's
	// attempts run out the tailer gives up and Run returns
	// faults.ErrRetriesExhausted.
	Reconnect faults.RetryPolicy
	// Obs, when non-nil, publishes the stream metrics and traces the
	// per-snapshot Complete stages.
	Obs *obs.Obs
	// OnSnapshot, when non-nil, receives every published snapshot (after
	// SnapshotPath is written). Called from the tail loop goroutine.
	OnSnapshot func(day dates.Day, snap *lifestore.Snapshot)
}

// Status is the tailer's externally visible state, rendered under
// "ingest" in /v1/health and retrievable via Tailer.Status.
type Status struct {
	// Healthy is false while the source is stale (watchdog tripped) and
	// the tailer is inside its reconnect ladder.
	Healthy bool `json:"healthy"`
	// Draining is true once shutdown has been requested and the tailer
	// is committing/publishing its final state.
	Draining bool `json:"draining"`

	LastCommittedDay string `json:"last_committed_day,omitempty"`
	// IngestLagDays is window-end minus last committed day.
	IngestLagDays int    `json:"ingest_lag_days"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointAgeSeconds is the time since the last commit (0 before
	// the first commit of this process).
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`

	DaysCommitted int64 `json:"days_committed"`
	DaysSkipped   int64 `json:"days_skipped"`
	StaleReads    int64 `json:"stale_reads"`
	Reconnects    int64 `json:"reconnects"`

	// Recovery evidence from this process's startup.
	TornWriteRecoveries int  `json:"torn_write_recoveries"`
	CorruptCheckpoints  int  `json:"corrupt_checkpoints"`
	UsedPrevCheckpoint  bool `json:"used_prev_checkpoint,omitempty"`
	FreshStart          bool `json:"fresh_start,omitempty"`
}

// Tailer follows a Source one complete day at a time, folding each day
// into a running activity carry and committing its position to the
// checkpoint journal after every day. Construct with NewTailer, drive
// with Run; Status and Snapshot may be called concurrently with Run.
type Tailer struct {
	opt      Options
	journal  *Journal
	ckpt     *Checkpoint // adopted checkpoint (nil on fresh start)
	recovery RecoveryReport
	fp       uint64
	m        *tailMetrics

	// Tail-loop state (owned by Run's goroutine). One scanner serves the
	// whole run, so its attribute table carries from day to day; a resume
	// starts with an empty one and computes the same.
	base  *pipeline.Base
	scan  *bgpscan.Scanner
	carry *bgpscan.Activity
	last  dates.Day
	op    pipeline.OpAccount // the committed days' account

	mu         sync.Mutex
	status     Status
	lastCommit time.Time
	snap       *lifestore.Snapshot
	snapDay    dates.Day

	// afterCommit, when set by tests, runs right after each checkpoint
	// commit; a non-nil return aborts Run with that error — the hook the
	// crash-equivalence test uses to kill the tailer at exact day
	// boundaries.
	afterCommit func(dates.Day) error
}

// Fingerprint derives the identity a checkpoint binds to: everything in
// the options that shapes the carried state. Resuming a journal written
// under a different fingerprint is a configuration error, not
// corruption — the carry would silently diverge from the batch result —
// so NewTailer rejects it outright.
func Fingerprint(opts pipeline.Options) uint64 {
	opts = opts.WithDefaults()
	h := fnv.New64a()
	inject := ""
	if opts.Inject != nil {
		inject = fmt.Sprintf("%+v", *opts.Inject)
	}
	// A tailer always takes the MRT wire and the delegation text round
	// trip; both stay in the hash so older journals still resume.
	fmt.Fprintf(h, "world=%+v wire=true text=true timeout=%d vis=%d policy=%d inject=%s",
		opts.World, opts.Timeout, opts.Visibility, opts.FaultPolicy, inject)
	return h.Sum64()
}

// NewTailer opens (or creates) the checkpoint journal under
// opt.CheckpointDir, recovers past any torn or corrupt checkpoints, and
// verifies the adopted checkpoint matches opt.Pipeline's fingerprint.
func NewTailer(opt Options) (*Tailer, error) {
	if opt.Source == nil {
		return nil, errors.New("stream: tailer needs a Source")
	}
	if opt.CheckpointDir == "" {
		return nil, errors.New("stream: tailer needs a CheckpointDir")
	}
	opt.Pipeline.Wire = true
	if opt.SnapshotEvery <= 0 {
		opt.SnapshotEvery = 1
	}

	j, ckpt, rec, err := OpenJournal(opt.CheckpointDir)
	if err != nil {
		return nil, err
	}
	fp := Fingerprint(opt.Pipeline)
	if ckpt != nil && ckpt.Fingerprint != fp {
		return nil, fmt.Errorf("stream: checkpoint %s was written by a different configuration (fingerprint %016x, want %016x); move it aside or match the options",
			j.Path(), ckpt.Fingerprint, fp)
	}

	t := &Tailer{opt: opt, journal: j, ckpt: ckpt, recovery: rec, fp: fp}
	var reg *obs.Registry
	if opt.Obs != nil {
		reg = opt.Obs.Registry
	}
	t.m = newTailMetrics(reg)
	torn := rec.TornTemps
	if rec.UsedPrev {
		torn++
	}
	t.m.counter(t.m.tornRecoveries, int64(torn))
	t.m.counter(t.m.corruptCkpts, int64(rec.CorruptCheckpoints))
	t.status = Status{
		Healthy:             true,
		TornWriteRecoveries: torn,
		CorruptCheckpoints:  rec.CorruptCheckpoints,
		UsedPrevCheckpoint:  rec.UsedPrev,
		FreshStart:          rec.Fresh,
	}
	if ckpt != nil {
		t.status.LastCommittedDay = ckpt.LastDay.String()
		t.status.CheckpointSeq = ckpt.Seq
		t.status.DaysCommitted = int64(ckpt.Op.Days)
	}
	return t, nil
}

// Recovery reports what NewTailer found (and survived) in the
// checkpoint directory.
func (t *Tailer) Recovery() RecoveryReport { return t.recovery }

// Status returns a point-in-time copy of the tailer's state.
func (t *Tailer) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.status
	if !t.lastCommit.IsZero() {
		s.CheckpointAgeSeconds = time.Since(t.lastCommit).Seconds()
	}
	return s
}

// Snapshot returns the latest published snapshot and its last day
// (nil, dates.None before the first publish).
func (t *Tailer) Snapshot() (*lifestore.Snapshot, dates.Day) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap == nil {
		return nil, dates.None
	}
	return t.snap, t.snapDay
}

// Run builds the window-static base, adopts the recovered checkpoint,
// and tails the source until the configured window's end day has been
// committed and published. It returns nil on completion and on a
// graceful drain (ctx cancelled: the in-flight day is committed, the
// committed state is published, then Run exits); any other return is a
// hard failure. Run must not be called twice.
func (t *Tailer) Run(ctx context.Context) error {
	if t.opt.Obs != nil {
		ctx = obs.WithTracer(ctx, t.opt.Obs.Tracer)
	}
	base, err := pipeline.BuildBase(ctx, t.opt.Pipeline)
	if err != nil {
		return err
	}
	t.base, t.scan = base, base.NewScanner()
	start, end := base.Window()

	// Adopt the recovered position, or start fresh one day before the
	// window so Next asks for the first day.
	if t.ckpt != nil {
		t.carry = t.ckpt.Carry
		t.last = t.ckpt.LastDay
		t.op = t.ckpt.Op
	} else {
		t.carry = bgpscan.NewPartial()
		t.last = start.AddDays(-1)
	}
	t.gauges(end)

	rec := faults.NewReconnector(t.opt.Reconnect)
	sincePublish := 0
	published := t.last // last day included in a published snapshot

	for t.last < end {
		if ctx.Err() != nil {
			return t.drain(published)
		}
		dd, err := t.opt.Source.Next(ctx, t.last)
		switch {
		case err == nil:
			// Healthy read: reset the watchdog and the backoff ladder.
			rec.Reset()
			t.setHealthy(true)
		case ctx.Err() != nil:
			return t.drain(published)
		case errors.Is(err, pipeline.ErrStale):
			// Watchdog: the source is wedged. Flag unhealthy, pace a
			// reconnect, try again; give up when the ladder runs out.
			t.setHealthy(false)
			t.m.counter(t.m.staleReads, 1)
			t.bumpStatus(func(s *Status) { s.StaleReads++ })
			if werr := rec.Wait(ctx); werr != nil {
				if ctx.Err() != nil {
					return t.drain(published)
				}
				return fmt.Errorf("stream: source stayed stale through %d reconnects: %w", rec.Stats().Retries, werr)
			}
			t.m.counter(t.m.reconnects, 1)
			t.bumpStatus(func(s *Status) { s.Reconnects++ })
			// A failed reconnect needs no handling of its own: it burns an
			// attempt and loops back into the next paced Wait via another
			// stale read.
			_ = t.opt.Source.Reconnect(ctx)
			continue
		default:
			return fmt.Errorf("stream: reading next day after %s: %w", t.last, err)
		}

		if dd.Day <= t.last {
			// Re-delivery of a committed day (source rewound after a
			// reconnect, or a restart re-reading the directory): an
			// idempotent no-op by design.
			t.m.counter(t.m.daysSkipped, 1)
			t.bumpStatus(func(s *Status) { s.DaysSkipped++ })
			continue
		}
		if dd.Day != t.last.AddDays(1) {
			return fmt.Errorf("stream: source skipped from %s to %s; days must arrive contiguously", t.last, dd.Day)
		}

		if err := t.ingestDay(dd); err != nil {
			return err
		}
		sincePublish++
		if t.afterCommit != nil {
			if err := t.afterCommit(dd.Day); err != nil {
				return err
			}
		}
		if sincePublish >= t.opt.SnapshotEvery || t.last == end {
			if err := t.publish(ctx); err != nil {
				return err
			}
			sincePublish, published = 0, t.last
		}
	}
	return nil
}

// ingestDay scans one day, folds it into the carry and commits the
// checkpoint.
func (t *Tailer) ingestDay(dd *Day) error {
	op, err := t.base.ScanDay(t.scan, dd)
	if err != nil {
		return err
	}
	t.carry.Absorb(t.scan.TakePartial())
	t.last = dd.Day
	t.op.Add(op)

	ckpt := &Checkpoint{Fingerprint: t.fp, LastDay: t.last, Op: t.op, Carry: t.carry}
	if err := t.journal.Commit(ckpt); err != nil {
		return err
	}
	t.m.counter(t.m.daysCommitted, 1)
	t.m.gauge(t.m.ckptSeq, float64(ckpt.Seq))
	now := time.Now()
	t.m.gauge(t.m.lastCommit, float64(now.Unix()))
	_, end := t.base.Window()
	t.gauges(end)
	t.mu.Lock()
	t.status.DaysCommitted++
	t.status.LastCommittedDay = t.last.String()
	t.status.CheckpointSeq = ckpt.Seq
	t.lastCommit = now
	t.mu.Unlock()
	return nil
}

// publish assembles the full Dataset for the days committed so far and
// captures it as a snapshot.
func (t *Tailer) publish(ctx context.Context) error {
	act := bgpscan.Finalize(t.carry)
	ds, err := t.base.Complete(ctx, act, t.op)
	if err != nil {
		return err
	}
	snap := ds.Snapshot()
	if t.opt.SnapshotPath != "" {
		if err := lifestore.SaveSnapshot(snap, t.opt.SnapshotPath); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.snap, t.snapDay = snap, t.last
	t.mu.Unlock()
	t.m.counter(t.m.snapshots, 1)
	t.m.gauge(t.m.lastPublish, float64(time.Now().Unix()))
	if t.opt.OnSnapshot != nil {
		t.opt.OnSnapshot(t.last, snap)
	}
	return nil
}

// drain is the graceful-shutdown tail: the in-flight day (if any) has
// already been committed by the loop body, so all that remains is to
// publish the committed state — with a fresh context, since the run's
// is cancelled — and report a clean exit.
func (t *Tailer) drain(published dates.Day) error {
	t.bumpStatus(func(s *Status) { s.Draining = true })
	if t.op.Days == 0 || t.last == published {
		return nil // nothing committed, or latest state already out
	}
	return t.publish(context.Background())
}

func (t *Tailer) setHealthy(h bool) {
	v := 0.0
	if h {
		v = 1.0
	}
	t.m.gauge(t.m.healthy, v)
	t.bumpStatus(func(s *Status) { s.Healthy = h })
}

func (t *Tailer) gauges(end dates.Day) {
	lag := 0
	if t.last < end {
		lag = end.Sub(t.last)
	}
	t.m.gauge(t.m.lagDays, float64(lag))
	t.bumpStatus(func(s *Status) { s.IngestLagDays = lag })
}

func (t *Tailer) bumpStatus(f func(*Status)) {
	t.mu.Lock()
	f(&t.status)
	t.mu.Unlock()
}
