package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/obs"
	"parallellives/internal/restore"
)

// obsOptions is a deliberately small instrumented run: one simulated
// year keeps the test quick enough to run even under -short.
func obsOptions(wire bool) Options {
	opts := DefaultOptions()
	opts.World.Scale = 0.01
	opts.World.Seed = 1
	opts.World.Start = dates.MustParse("2006-01-01")
	opts.World.End = dates.MustParse("2007-01-01")
	opts.Wire = wire
	opts.Obs = obs.New()
	return opts
}

// TestStageReportReconciles is the acceptance check for the tentpole:
// every number the stage trace reports must equal the corresponding
// count in the finished dataset, and the registry totals must agree
// with the Health report — the trace is a view of the run, not a
// parallel bookkeeping that can drift.
func TestStageReportReconciles(t *testing.T) {
	opts := obsOptions(true) // wire mode so MRT archive/record counters move
	ds, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	root := ds.Trace
	if root == nil || root.Name() != "pipeline.run" {
		t.Fatalf("root span = %+v, want pipeline.run", root)
	}
	if root.Duration() <= 0 {
		t.Fatal("root span never ended")
	}
	for _, stage := range []string{"worldsim", "restore", "segment.admin", "bgpscan", "segment.op", "join"} {
		if root.Child(stage) == nil {
			t.Fatalf("stage span %q missing from trace", stage)
		}
	}

	attr := func(stage, key string) int64 {
		t.Helper()
		v, ok := root.Child(stage).Attr(key)
		if !ok {
			t.Fatalf("stage %q has no attr %q", stage, key)
		}
		return v
	}

	if got, want := attr("worldsim", obs.AttrOut), int64(len(ds.World.Lives)); got != want {
		t.Errorf("worldsim out = %d, want %d lives", got, want)
	}
	if got, want := attr("restore", obs.AttrOut), int64(len(ds.Restored.Runs)); got != want {
		t.Errorf("restore out = %d, want %d runs", got, want)
	}
	if got, want := attr("restore", obs.AttrIn), int64(ds.Restored.Report.FilesScanned); got != want {
		t.Errorf("restore in = %d, want %d files", got, want)
	}
	if got, want := attr("segment.admin", obs.AttrOut), int64(len(ds.Admin.Lifetimes)); got != want {
		t.Errorf("segment.admin out = %d, want %d admin lifetimes", got, want)
	}
	if got, want := attr("segment.op", obs.AttrOut), int64(len(ds.Ops.Lifetimes)); got != want {
		t.Errorf("segment.op out = %d, want %d op lifetimes", got, want)
	}
	st := ds.Activity.Stats
	if got, want := attr("bgpscan", obs.AttrOut), st.Routes; got != want {
		t.Errorf("bgpscan out = %d, want %d routes", got, want)
	}
	if got, want := attr("bgpscan", "records"), st.RIBRecords+st.UpdateMessages; got != want {
		t.Errorf("bgpscan records = %d, want %d", got, want)
	}
	if got, want := attr("bgpscan", obs.AttrQuarantined), st.QuarantinedTruncated+st.QuarantinedTails; got != want {
		t.Errorf("bgpscan quarantined = %d, want %d", got, want)
	}
	if got, want := attr("bgpscan", obs.AttrIn), ds.Health.MRT.Archives; got != want {
		t.Errorf("bgpscan in = %d, want %d archives", got, want)
	}

	// The registry's cumulative counters (published per day during the
	// scan) must land on the same totals as the Health report.
	reg := opts.Obs.Registry
	regval := func(name string, labels ...string) float64 {
		t.Helper()
		v, ok := reg.Value(name, labels...)
		if !ok {
			t.Fatalf("metric %s%v not in registry", name, labels)
		}
		return v
	}
	if got, want := regval(MetricDaysProcessed), float64(ds.Health.DaysProcessed); got != want {
		t.Errorf("%s = %v, want %v", MetricDaysProcessed, got, want)
	}
	if got, want := regval(MetricMRTArchives), float64(ds.Health.MRT.Archives); got != want {
		t.Errorf("%s = %v, want %v", MetricMRTArchives, got, want)
	}
	if got, want := regval(MetricMRTRecords), float64(ds.Health.MRT.Records); got != want {
		t.Errorf("%s = %v, want %v", MetricMRTRecords, got, want)
	}
	if got, want := regval(MetricRoutes), float64(st.Routes); got != want {
		t.Errorf("%s = %v, want %v", MetricRoutes, got, want)
	}
	if got, want := regval(MetricQuarantined, "truncated"), float64(st.QuarantinedTruncated); got != want {
		t.Errorf("%s{truncated} = %v, want %v", MetricQuarantined, got, want)
	}

	// Each stage observed exactly one duration into the stage histogram.
	for _, f := range reg.Gather() {
		if f.Name != MetricStageSeconds {
			continue
		}
		if len(f.Series) != 6 {
			t.Errorf("stage histogram has %d series, want 6", len(f.Series))
		}
		for _, s := range f.Series {
			if s.Count != 1 {
				t.Errorf("stage %v observed %d durations, want 1", s.LabelValues, s.Count)
			}
		}
	}

	table := obs.StageTable(root)
	for _, want := range []string{"STAGE", "pipeline.run", "bgpscan", "segment.admin"} {
		if !strings.Contains(table, want) {
			t.Errorf("stage table missing %q:\n%s", want, table)
		}
	}
}

// TestRunWithoutObsCarriesNoTrace pins the off switch: a plain run has
// a nil trace and pays no instrumentation.
func TestRunWithoutObsCarriesNoTrace(t *testing.T) {
	opts := obsOptions(false)
	opts.Obs = nil
	ds, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Trace != nil {
		t.Fatalf("uninstrumented run produced a trace: %+v", ds.Trace)
	}
}

// TestObsDoesNotChangeResults proves instrumentation is a pure
// observer: the same options with and without Obs build identical
// datasets.
func TestObsDoesNotChangeResults(t *testing.T) {
	withObs, err := Run(obsOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	plain := obsOptions(false)
	plain.Obs = nil
	without, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(withObs.Admin.Lifetimes), len(without.Admin.Lifetimes); got != want {
		t.Errorf("admin lifetimes %d with obs vs %d without", got, want)
	}
	if got, want := len(withObs.Ops.Lifetimes), len(without.Ops.Lifetimes); got != want {
		t.Errorf("op lifetimes %d with obs vs %d without", got, want)
	}
	if got, want := withObs.Joint.Taxonomy(), without.Joint.Taxonomy(); got != want {
		t.Errorf("taxonomy %+v with obs vs %+v without", got, want)
	}
}

// TestHealthExport checks the Health→registry bridge field by field.
func TestHealthExport(t *testing.T) {
	h := &Health{
		Policy:        Degrade,
		DaysProcessed: 42,
		MRT: MRTHealth{
			Archives:             10,
			Records:              900,
			QuarantinedTruncated: 100,
			QuarantinedTails:     3,
			Malformed:            7,
		},
		Delegation: DelegationHealth{
			FilesScanned:    55,
			MissingFileDays: 6,
			CorruptFileDays: 2,
			Retries:         4,
			AbandonedReads:  1,
			RetryBackoff:    1500 * time.Millisecond,
		},
		Injected: &faults.Report{TruncatedRecords: 100, Stalls: 2},
	}
	h.Coverage[asn.ARIN] = restore.Coverage{Days: 100, FileDays: 80, MissingDays: 20}
	h.Coverage[asn.RIPENCC] = restore.Coverage{Days: 100, FileDays: 95, MissingDays: 5}

	reg := obs.NewRegistry()
	h.Export(reg)

	want := map[string]float64{
		"parallellives_pipeline_health_days_processed":        42,
		"parallellives_pipeline_health_quarantined_frac":      float64(100) / float64(1000),
		"parallellives_pipeline_health_retry_backoff_seconds": 1.5,
		"parallellives_pipeline_health_worst_lost_day_frac":   0.2,
	}
	for name, w := range want {
		got, ok := reg.Value(name)
		if !ok || got != w {
			t.Errorf("%s = %v,%v, want %v", name, got, ok, w)
		}
	}
	wantLabeled := []struct {
		name, label string
		v           float64
	}{
		{"parallellives_pipeline_health_policy", "degrade", 1},
		{"parallellives_pipeline_health_mrt", "archives", 10},
		{"parallellives_pipeline_health_mrt", "records", 900},
		{"parallellives_pipeline_health_mrt", "quarantined_tails", 3},
		{"parallellives_pipeline_health_mrt", "malformed", 7},
		{"parallellives_pipeline_health_delegation", "files_scanned", 55},
		{"parallellives_pipeline_health_delegation", "abandoned_reads", 1},
		{"parallellives_pipeline_health_coverage_file_days", "arin", 80},
		{"parallellives_pipeline_health_coverage_missing_days", "ripencc", 5},
		{"parallellives_pipeline_health_injected_faults", "truncated_records", 100},
		{"parallellives_pipeline_health_injected_faults", "stalls", 2},
	}
	for _, c := range wantLabeled {
		got, ok := reg.Value(c.name, c.label)
		if !ok || got != c.v {
			t.Errorf("%s{%s} = %v,%v, want %v", c.name, c.label, got, ok, c.v)
		}
	}

	// Re-export after another run overwrites rather than accumulates.
	h.DaysProcessed = 50
	h.Export(reg)
	if got, _ := reg.Value("parallellives_pipeline_health_days_processed"); got != 50 {
		t.Errorf("re-export days = %v, want 50 (gauges must overwrite)", got)
	}
}

// TestRunMetricsNilSafe pins the observability-off contract explicitly:
// every method on the metric types must no-op on a nil receiver, because
// Run calls them unconditionally and m is nil whenever Options.Obs is.
// The contract used to be incidental; this test makes it load-bearing.
func TestRunMetricsNilSafe(t *testing.T) {
	if m := newRunMetrics(nil); m != nil {
		t.Fatal("newRunMetrics(nil) must return nil")
	}
	var m *runMetrics
	m.observeStages(nil) // nil receiver AND nil root
	sm := m.shard()
	if sm != nil {
		t.Fatal("(*runMetrics)(nil).shard() must return nil")
	}
	sm.endOfDay(1, bgpscan.Stats{})

	// A live root span with a nil metrics sink must also be harmless —
	// the shape Run hits when tracing is on but the registry is absent.
	ctx := obs.WithTracer(context.Background(), obs.NewTracer())
	ctx, root := obs.StartSpan(ctx, "pipeline.run")
	_, child := obs.StartSpan(ctx, "stage")
	child.End()
	root.End()
	m.observeStages(root)
}

// TestScanReportsAttributeTable: each bgpscan.shard[i] span reports its
// attribute table's work, and the bgpscan span their sums. On the MRT
// wire blocks repeat across routes and carry across days, so fewer are
// decoded than records are scanned; off the wire nothing touches the
// table.
func TestScanReportsAttributeTable(t *testing.T) {
	keys := []string{"attr_decoded", "attr_carried", "attr_compactions"}
	for _, wire := range []bool{true, false} {
		opts := obsOptions(wire)
		opts.World.End = dates.MustParse("2006-03-31")
		opts.Workers = 2
		ds, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		scan := ds.Trace.Child("bgpscan")
		got := map[string]int64{}
		for _, k := range keys {
			var sum int64
			shards := 0
			for _, sp := range scan.Children() {
				if strings.HasPrefix(sp.Name(), "bgpscan.shard[") {
					v, _ := sp.Attr(k)
					sum += v
					shards++
				}
			}
			got[k], _ = scan.Attr(k)
			if shards != 2 || got[k] != sum {
				t.Fatalf("wire=%v: bgpscan %s = %d, the sum over %d shard spans %d", wire, k, got[k], shards, sum)
			}
		}
		st := ds.Activity.Stats
		if wire && (got["attr_carried"] == 0 || got["attr_decoded"] == 0 || got["attr_decoded"] >= st.RIBRecords) {
			t.Errorf("wire run: %v for %d RIB records", got, st.RIBRecords)
		}
		if !wire && got["attr_carried"]+got["attr_decoded"] != 0 {
			t.Errorf("run off the wire touched the table: %v", got)
		}
	}
}
