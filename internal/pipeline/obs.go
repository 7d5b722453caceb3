package pipeline

import (
	"parallellives/internal/bgpscan"
	"parallellives/internal/obs"
)

// Registry metric names the pipeline publishes. Exported so commands and
// progress reporters can read them back without string drift.
const (
	// MetricDaysProcessed counts operational-side days scanned; it rises
	// once per day during the scan, so samplers see liveness mid-run.
	MetricDaysProcessed = "parallellives_pipeline_days_processed_total"
	// MetricMRTArchives counts MRT archives fed to the scanner (wire mode).
	MetricMRTArchives = "parallellives_pipeline_mrt_archives_total"
	// MetricMRTRecords counts accepted MRT route records (RIB + updates).
	MetricMRTRecords = "parallellives_pipeline_mrt_records_total"
	// MetricRoutes counts sanitized route observations accepted into day
	// state — the record stream in both wire and direct modes.
	MetricRoutes = "parallellives_pipeline_routes_total"
	// MetricQuarantined counts quarantined/skipped records by damage
	// class ("truncated", "tail", "malformed").
	MetricQuarantined = "parallellives_pipeline_mrt_quarantined_total"
	// MetricStageSeconds is the per-stage wall-clock histogram ("stage"
	// label), observed once per stage per run.
	MetricStageSeconds = "parallellives_pipeline_stage_duration_seconds"
)

// runMetrics holds the pre-resolved instrument handles one Run updates.
// A nil *runMetrics (observability off) no-ops everywhere, so the hot
// loops carry a single pointer test. The registry counters themselves
// are atomic, so shards publish through them concurrently; the per-day
// delta bookkeeping lives in per-shard shardMetrics views (see shard).
type runMetrics struct {
	days          *obs.Counter
	archives      *obs.Counter
	records       *obs.Counter
	routes        *obs.Counter
	quarTruncated *obs.Counter
	quarTails     *obs.Counter
	malformed     *obs.Counter
	stageSeconds  *obs.HistogramVec
	runtime       *obs.RuntimeStats
}

func newRunMetrics(reg *obs.Registry) *runMetrics {
	if reg == nil {
		return nil
	}
	quar := reg.CounterVec(MetricQuarantined,
		"Route records quarantined or skipped by the scanner, by damage class.", "class")
	return &runMetrics{
		days:          reg.Counter(MetricDaysProcessed, "Operational-side days scanned."),
		archives:      reg.Counter(MetricMRTArchives, "MRT archives fed to the scanner."),
		records:       reg.Counter(MetricMRTRecords, "MRT route records accepted (RIB entries + update messages)."),
		routes:        reg.Counter(MetricRoutes, "Sanitized route observations accepted into day state."),
		quarTruncated: quar.With("truncated"),
		quarTails:     quar.With("tail"),
		malformed:     quar.With("malformed"),
		stageSeconds: reg.HistogramVec(MetricStageSeconds,
			"Wall-clock duration of each pipeline stage.", nil, "stage"),
		runtime: obs.RegisterRuntime(reg),
	}
}

// collect refreshes the shared runtime gauges (heap, GC, goroutines).
// Called at stage boundaries, never inside hot loops: ReadMemStats
// stops the world briefly, so a sampler watching a long scan sees the
// memory profile move stage by stage at zero per-record cost.
func (m *runMetrics) collect() {
	if m == nil {
		return
	}
	m.runtime.Collect()
}

// shardMetrics is one scan shard's single-goroutine view of the shared
// run metrics: the shard's scanner stats are cumulative, so each shard
// tracks its own previous snapshot and publishes per-day deltas into the
// shared (atomic) counters. Deltas from concurrent shards interleave,
// but sums are exact — a sampler sees the same totals a sequential run
// publishes, just accumulated from several scanners. A nil receiver
// (observability off) no-ops.
type shardMetrics struct {
	m    *runMetrics
	prev bgpscan.Stats // this shard's last published scanner snapshot
}

// shard returns a fresh per-shard delta view, nil when observability is
// off.
func (m *runMetrics) shard() *shardMetrics {
	if m == nil {
		return nil
	}
	return &shardMetrics{m: m}
}

// endOfDay publishes the day's archive count and scanner-stat deltas so
// samplers watching the registry see records and quarantines grow while
// the scan runs.
func (sm *shardMetrics) endOfDay(archives int64, st bgpscan.Stats) {
	if sm == nil {
		return
	}
	sm.m.days.Inc()
	sm.m.archives.Add(archives)
	sm.m.records.Add((st.RIBRecords + st.UpdateMessages) - (sm.prev.RIBRecords + sm.prev.UpdateMessages))
	sm.m.routes.Add(st.Routes - sm.prev.Routes)
	sm.m.quarTruncated.Add(st.QuarantinedTruncated - sm.prev.QuarantinedTruncated)
	sm.m.quarTails.Add(st.QuarantinedTails - sm.prev.QuarantinedTails)
	sm.m.malformed.Add(st.DropMalformed - sm.prev.DropMalformed)
	sm.prev = st
}

// observeStages records every stage span's duration into the stage
// histogram once the run's root span has ended.
func (m *runMetrics) observeStages(root *obs.Span) {
	if m == nil || root == nil {
		return
	}
	for _, stage := range root.Children() {
		m.stageSeconds.With(stage.Name()).ObserveDuration(stage.Duration())
	}
}
