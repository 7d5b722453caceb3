package faults

import (
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/obs"
	"parallellives/internal/restore"
)

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
		Injected: &Report{TruncatedRecords: 100, Stalls: 2},
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
