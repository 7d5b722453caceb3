package stream

import (
	"time"

	"parallellives/internal/obs"
)

// Metric names exported by the tailer. Counters are monotone within a
// process; gauges describe the current tail position. The recovery
// counters include damage found at startup (a crash is usually in a
// previous process), so a restart carries the evidence forward.
const (
	MetricDaysCommitted   = "parallellives_stream_days_committed_total"
	MetricDaysSkipped     = "parallellives_stream_days_skipped_total"
	MetricStaleReads      = "parallellives_stream_stale_reads_total"
	MetricReconnects      = "parallellives_stream_reconnects_total"
	MetricTornRecoveries  = "parallellives_stream_torn_write_recoveries_total"
	MetricCorruptCkpts    = "parallellives_stream_corrupt_checkpoints_total"
	MetricSnapshotsPushed = "parallellives_stream_snapshots_published_total"
	MetricCheckpointSeq   = "parallellives_stream_checkpoint_seq"
	MetricLastCommitUnix  = "parallellives_stream_last_commit_unix_seconds"
	MetricLastPublishUnix = "parallellives_stream_last_publish_unix_seconds"
	MetricIngestLagDays   = "parallellives_stream_ingest_lag_days"
	MetricSourceHealthy   = "parallellives_stream_source_healthy"

	// The per-day cost of staying live: assembling and publishing a
	// snapshot, and committing the checkpoint, whose size is the last
	// commit's encoded bytes.
	MetricPublishSeconds  = "parallellives_stream_publish_seconds"
	MetricCommitSeconds   = "parallellives_stream_commit_seconds"
	MetricCheckpointBytes = "parallellives_stream_checkpoint_bytes"
)

// tailMetrics is the tailer's registry view. With observability off the
// struct exists but every handle is nil; the counter/gauge helpers
// no-op on nil handles, so call sites never branch.
type tailMetrics struct {
	daysCommitted  *obs.Counter
	daysSkipped    *obs.Counter
	staleReads     *obs.Counter
	reconnects     *obs.Counter
	tornRecoveries *obs.Counter
	corruptCkpts   *obs.Counter
	snapshots      *obs.Counter
	ckptSeq        *obs.Gauge
	lastCommit     *obs.Gauge
	lastPublish    *obs.Gauge
	lagDays        *obs.Gauge
	healthy        *obs.Gauge
	publish        *obs.Histogram
	commit         *obs.Histogram
	ckptBytes      *obs.Gauge
}

func newTailMetrics(reg *obs.Registry) *tailMetrics {
	if reg == nil {
		return &tailMetrics{}
	}
	return &tailMetrics{
		daysCommitted: reg.Counter(MetricDaysCommitted,
			"Days scanned, absorbed and checkpoint-committed by the tailer."),
		daysSkipped: reg.Counter(MetricDaysSkipped,
			"Already-committed days re-delivered by the source and skipped (idempotent no-ops)."),
		staleReads: reg.Counter(MetricStaleReads,
			"Source reads that exceeded the read deadline (staleness-as-error)."),
		reconnects: reg.Counter(MetricReconnects,
			"Source reconnect attempts triggered by staleness or transport errors."),
		tornRecoveries: reg.Counter(MetricTornRecoveries,
			"Torn checkpoint writes recovered past: abandoned temp files plus prev-generation fallbacks."),
		corruptCkpts: reg.Counter(MetricCorruptCkpts,
			"Checkpoint files rejected as torn or corrupt during recovery."),
		snapshots: reg.Counter(MetricSnapshotsPushed,
			"Full lifestore snapshots assembled and published by the tailer."),
		ckptSeq: reg.Gauge(MetricCheckpointSeq,
			"Sequence number of the last committed checkpoint."),
		lastCommit: reg.Gauge(MetricLastCommitUnix,
			"Wall-clock time of the last checkpoint commit (unix seconds); checkpoint age = now - this."),
		lastPublish: reg.Gauge(MetricLastPublishUnix,
			"Wall-clock time of the last published snapshot (unix seconds); publish age = now - this."),
		lagDays: reg.Gauge(MetricIngestLagDays,
			"Days between the configured window end and the last committed day."),
		healthy: reg.Gauge(MetricSourceHealthy,
			"1 while the source is producing days within the staleness threshold, 0 while stalled."),
		publish: reg.Histogram(MetricPublishSeconds,
			"Time to assemble, save and hand out one published snapshot.", nil),
		commit: reg.Histogram(MetricCommitSeconds,
			"Time to encode, write and fsync one checkpoint commit.", nil),
		ckptBytes: reg.Gauge(MetricCheckpointBytes,
			"Encoded size of the last committed checkpoint."),
	}
}

func (m *tailMetrics) counter(c *obs.Counter, n int64) {
	if c != nil && n > 0 {
		c.Add(n)
	}
}

func (m *tailMetrics) gauge(g *obs.Gauge, v float64) {
	if g != nil {
		g.Set(v)
	}
}

func (m *tailMetrics) since(h *obs.Histogram, start time.Time) {
	if h != nil {
		h.ObserveDuration(time.Since(start))
	}
}
