package faults

import (
	"fmt"
	"strings"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/obs"
	"parallellives/internal/restore"
)

// FaultPolicy selects how a pipeline run reacts to damaged inputs.
type FaultPolicy int

const (
	// FailFast aborts the run on the first input error — the seed
	// behaviour, and the zero value.
	FailFast FaultPolicy = iota
	// Degrade quarantines damaged records, keeps damaged days, and
	// completes the run as long as the ErrorBudget holds, reporting
	// everything it skipped in the Health report.
	Degrade
)

// String implements fmt.Stringer.
func (p FaultPolicy) String() string {
	if p == Degrade {
		return "degrade"
	}
	return "failfast"
}

// ParseFaultPolicy parses a policy name ("failfast" or "degrade").
func ParseFaultPolicy(s string) (FaultPolicy, error) {
	switch strings.ToLower(s) {
	case "", "failfast":
		return FailFast, nil
	case "degrade":
		return Degrade, nil
	}
	return FailFast, fmt.Errorf("pipeline: unknown fault policy %q (want failfast or degrade)", s)
}

// ErrorBudget bounds how much damage a Degrade run may absorb before it
// fails anyway: a dataset built from mostly-quarantined inputs is worse
// than no dataset. Zero fields take the defaults noted.
type ErrorBudget struct {
	// MaxQuarantinedFrac is the largest tolerated fraction of MRT route
	// records quarantined, over records seen (default 0.25).
	MaxQuarantinedFrac float64
	// MaxLostDayFrac is the largest tolerated fraction of delegation days
	// with no usable file, in any one registry (default 0.60 — delegation
	// archives start sparse, and step (i) bridges long runs of holes).
	MaxLostDayFrac float64
}

func (b ErrorBudget) withDefaults() ErrorBudget {
	if b.MaxQuarantinedFrac <= 0 {
		b.MaxQuarantinedFrac = 0.25
	}
	if b.MaxLostDayFrac <= 0 {
		b.MaxLostDayFrac = 0.60
	}
	return b
}

// MRTHealth is the operational side of the Health report.
type MRTHealth struct {
	Archives             int64 // MRT archives fed to the scanner
	Records              int64 // route records accepted (RIB + updates)
	QuarantinedTruncated int64 // records skipped as truncated
	QuarantinedTails     int64 // archives cut short by a framing break
	Malformed            int64 // records skipped as generically malformed
}

// QuarantinedFrac returns the fraction of route records quarantined.
func (m MRTHealth) QuarantinedFrac() float64 {
	total := m.Records + m.QuarantinedTruncated
	if total == 0 {
		return 0
	}
	return float64(m.QuarantinedTruncated) / float64(total)
}

// DelegationHealth is the administrative side of the Health report.
type DelegationHealth struct {
	FilesScanned    int
	MissingFileDays int           // days bridged with no usable file
	CorruptFileDays int           // of those, days lost to corrupt retrievals
	Retries         int64         // transient source errors recovered by retry
	AbandonedReads  int64         // days given up on after the retry budget
	RetryBackoff    time.Duration // total (virtual) backoff spent retrying
}

// Health is a pipeline run's account of what it ingested, skipped and
// recovered — the report that makes a Degrade run auditable instead of
// silently lossy.
type Health struct {
	Policy        FaultPolicy
	DaysProcessed int // days scanned on the operational side
	MRT           MRTHealth
	Delegation    DelegationHealth
	// Coverage is the per-RIR usable-file inventory of this run.
	Coverage [asn.NumRIRs]restore.Coverage
	// Injected echoes the fault injector's report when the run injected
	// faults (nil otherwise), so tests and chaos runs can reconcile planted
	// faults against observed quarantines.
	Injected *Report
}

// CheckBudget returns an error when the damage absorbed exceeds the
// budget — the Degrade-mode backstop.
func (h *Health) CheckBudget(b ErrorBudget) error {
	b = b.withDefaults()
	if f := h.MRT.QuarantinedFrac(); f > b.MaxQuarantinedFrac {
		return fmt.Errorf("pipeline: error budget exceeded: %.1f%% of MRT route records quarantined (budget %.1f%%)",
			f*100, b.MaxQuarantinedFrac*100)
	}
	for _, r := range asn.All() {
		c := h.Coverage[r]
		if c.Days == 0 {
			continue
		}
		if f := float64(c.MissingDays) / float64(c.Days); f > b.MaxLostDayFrac {
			return fmt.Errorf("pipeline: error budget exceeded: %.1f%% of %s delegation days unusable (budget %.1f%%)",
				f*100, r.Token(), b.MaxLostDayFrac*100)
		}
	}
	return nil
}

// Export publishes the report as gauges under
// parallellives_pipeline_health_*, bridging a finished (or snapshot-
// restored) run's account into a registry so /metrics scrapes carry the
// build's health next to live serving metrics. Gauges, not counters:
// the report is a state to republish, not an event stream — calling
// Export again after another Run overwrites rather than double-counts.
func (h *Health) Export(reg *obs.Registry) {
	if h == nil || reg == nil {
		return
	}
	reg.GaugeVec("parallellives_pipeline_health_policy",
		"Fault policy the dataset was built under (value 1 on the active policy).",
		"policy").With(h.Policy.String()).Set(1)
	reg.Gauge("parallellives_pipeline_health_days_processed",
		"Operational-side days scanned by the build.").Set(float64(h.DaysProcessed))

	mrt := reg.GaugeVec("parallellives_pipeline_health_mrt",
		"Operational-side ingest account of the build, by field.", "field")
	mrt.With("archives").Set(float64(h.MRT.Archives))
	mrt.With("records").Set(float64(h.MRT.Records))
	mrt.With("quarantined_truncated").Set(float64(h.MRT.QuarantinedTruncated))
	mrt.With("quarantined_tails").Set(float64(h.MRT.QuarantinedTails))
	mrt.With("malformed").Set(float64(h.MRT.Malformed))
	reg.Gauge("parallellives_pipeline_health_quarantined_frac",
		"Fraction of MRT route records quarantined during the build.").Set(h.MRT.QuarantinedFrac())

	del := reg.GaugeVec("parallellives_pipeline_health_delegation",
		"Administrative-side ingest account of the build, by field.", "field")
	del.With("files_scanned").Set(float64(h.Delegation.FilesScanned))
	del.With("missing_file_days").Set(float64(h.Delegation.MissingFileDays))
	del.With("corrupt_file_days").Set(float64(h.Delegation.CorruptFileDays))
	del.With("retries").Set(float64(h.Delegation.Retries))
	del.With("abandoned_reads").Set(float64(h.Delegation.AbandonedReads))
	reg.Gauge("parallellives_pipeline_health_retry_backoff_seconds",
		"Total virtual backoff spent retrying delegation reads.").Set(h.Delegation.RetryBackoff.Seconds())

	fileDays := reg.GaugeVec("parallellives_pipeline_health_coverage_file_days",
		"Delegation days with a usable file, per registry.", "rir")
	missDays := reg.GaugeVec("parallellives_pipeline_health_coverage_missing_days",
		"Delegation days bridged with no usable file, per registry.", "rir")
	var worstLost float64
	for _, r := range asn.All() {
		c := h.Coverage[r]
		if c.Days == 0 {
			continue
		}
		fileDays.With(r.Token()).Set(float64(c.FileDays))
		missDays.With(r.Token()).Set(float64(c.MissingDays))
		if f := float64(c.MissingDays) / float64(c.Days); f > worstLost {
			worstLost = f
		}
	}
	reg.Gauge("parallellives_pipeline_health_worst_lost_day_frac",
		"Largest per-registry fraction of unusable delegation days.").Set(worstLost)

	if h.Injected != nil {
		inj := reg.GaugeVec("parallellives_pipeline_health_injected_faults",
			"Faults planted by the chaos injector, by class.", "class")
		inj.With("truncated_records").Set(float64(h.Injected.TruncatedRecords))
		inj.With("tail_chops").Set(float64(h.Injected.TailChops))
		inj.With("corrupt_days").Set(float64(h.Injected.CorruptDays))
		inj.With("dropped_days").Set(float64(h.Injected.DroppedDays))
		inj.With("transient_errs").Set(float64(h.Injected.TransientErrs))
		inj.With("short_reads").Set(float64(h.Injected.ShortReads))
		inj.With("stalls").Set(float64(h.Injected.Stalls))
	}
}

// Summary returns a one-line digest for command output.
func (h *Health) Summary() string {
	return fmt.Sprintf("health: policy=%s days=%d records=%d quarantined=%d tails=%d malformed=%d missing-file-days=%d (corrupt %d) retries=%d abandoned=%d",
		h.Policy, h.DaysProcessed, h.MRT.Records,
		h.MRT.QuarantinedTruncated, h.MRT.QuarantinedTails, h.MRT.Malformed,
		h.Delegation.MissingFileDays, h.Delegation.CorruptFileDays,
		h.Delegation.Retries, h.Delegation.AbandonedReads)
}

// Text renders the full report, one aligned block per side.
func (h *Health) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault policy            %s\n", h.Policy)
	fmt.Fprintf(&b, "Days processed          %d\n", h.DaysProcessed)
	fmt.Fprintf(&b, "MRT archives            %d\n", h.MRT.Archives)
	fmt.Fprintf(&b, "  route records         %d\n", h.MRT.Records)
	fmt.Fprintf(&b, "  quarantined truncated %d (%.2f%%)\n", h.MRT.QuarantinedTruncated, h.MRT.QuarantinedFrac()*100)
	fmt.Fprintf(&b, "  quarantined tails     %d\n", h.MRT.QuarantinedTails)
	fmt.Fprintf(&b, "  malformed skipped     %d\n", h.MRT.Malformed)
	fmt.Fprintf(&b, "Delegation files        %d\n", h.Delegation.FilesScanned)
	fmt.Fprintf(&b, "  missing file days     %d\n", h.Delegation.MissingFileDays)
	fmt.Fprintf(&b, "  corrupt file days     %d\n", h.Delegation.CorruptFileDays)
	fmt.Fprintf(&b, "  retries / abandoned   %d / %d (backoff %v)\n",
		h.Delegation.Retries, h.Delegation.AbandonedReads, h.Delegation.RetryBackoff)
	for _, r := range asn.All() {
		c := h.Coverage[r]
		if c.Days == 0 {
			continue
		}
		fmt.Fprintf(&b, "Coverage %-8s       %d/%d file days (%d missing, %d corrupt)\n",
			r.Token(), c.FileDays, c.Days, c.MissingDays, c.CorruptDays)
	}
	if h.Injected != nil {
		i := h.Injected
		fmt.Fprintf(&b, "Injected faults         %d (trunc %d, tails %d, corrupt %d, dropped %d, transient %d, short %d, stalls %d)\n",
			i.Total(), i.TruncatedRecords, i.TailChops, i.CorruptDays,
			i.DroppedDays, i.TransientErrs, i.ShortReads, i.Stalls)
	}
	return b.String()
}
