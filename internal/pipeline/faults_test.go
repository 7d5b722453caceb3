package pipeline

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"parallellives/internal/dates"
	"parallellives/internal/faults"
)

// faultOptions is the reduced wire-mode world the fault tests run over.
func faultOptions(end string) Options {
	opts := smallOptions()
	opts.World.Scale = 0.01
	opts.World.End = dates.MustParse(end)
	opts.Wire = true
	return opts
}

// datasetBytes serializes both Listing-1 outputs — the byte-identity
// witness for the degrade-is-a-no-op property.
func datasetBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteAdminJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteOpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDegradeIsNoOpOnCleanInput is the safety property behind making
// Degrade a reasonable default for dirty archives: with zero faults the
// two policies produce byte-identical datasets.
func TestDegradeIsNoOpOnCleanInput(t *testing.T) {
	if testing.Short() {
		t.Skip("full wire-mode pipeline runs")
	}
	for _, seed := range []int64{1, 5} {
		opts := faultOptions("2005-12-31")
		opts.World.Seed = seed
		ff, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.FaultPolicy = Degrade
		dg, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(datasetBytes(t, ff), datasetBytes(t, dg)) {
			t.Fatalf("seed %d: degrade over clean input changed the dataset bytes", seed)
		}
		if ft, dt := ff.Joint.Taxonomy(), dg.Joint.Taxonomy(); ft != dt {
			t.Fatalf("seed %d: taxonomies differ: failfast %+v degrade %+v", seed, ft, dt)
		}
		if h := dg.Health; h.MRT.QuarantinedTruncated != 0 || h.MRT.QuarantinedTails != 0 ||
			h.Delegation.Retries != 0 || h.Delegation.AbandonedReads != 0 {
			t.Fatalf("seed %d: clean degrade run reports damage: %+v", seed, h)
		}
	}
}

// TestFaultStormDegrade is the acceptance storm: MRT truncation and tail
// chops, corrupt and dropped delegation days, and transient source
// errors, all at once. The Degrade run must complete, the Health report
// must account for every injected fault by class, and the Table 3
// taxonomy must stay within 2 percentage points of the clean run.
func TestFaultStormDegrade(t *testing.T) {
	if testing.Short() {
		t.Skip("full wire-mode pipeline runs")
	}
	opts := faultOptions("2006-12-31")
	clean, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	plan := faults.DefaultStorm(7)
	opts.Inject = &plan
	opts.FaultPolicy = Degrade
	storm, err := Run(opts)
	if err != nil {
		t.Fatalf("degrade run under fault storm failed: %v", err)
	}
	inj := storm.Health.Injected
	if inj == nil {
		t.Fatal("storm run carries no injection report")
	}
	if inj.TruncatedRecords == 0 || inj.TailChops == 0 || inj.CorruptDays == 0 ||
		inj.DroppedDays == 0 || inj.TransientErrs == 0 {
		t.Fatalf("storm left a fault class empty: %+v", inj)
	}

	// Every injected fault is accounted for by class, exactly.
	h, ch := storm.Health, clean.Health
	if h.MRT.QuarantinedTruncated != inj.TruncatedRecords {
		t.Errorf("quarantined %d truncated records, injected %d",
			h.MRT.QuarantinedTruncated, inj.TruncatedRecords)
	}
	if h.MRT.QuarantinedTails != inj.TailChops {
		t.Errorf("quarantined %d tails, injected %d", h.MRT.QuarantinedTails, inj.TailChops)
	}
	if h.MRT.Malformed != ch.MRT.Malformed {
		t.Errorf("malformed count moved under the storm: %d vs clean %d",
			h.MRT.Malformed, ch.MRT.Malformed)
	}
	if got := h.Delegation.CorruptFileDays - ch.Delegation.CorruptFileDays; int64(got) != inj.CorruptDays {
		t.Errorf("corrupt file days grew by %d, injected %d", got, inj.CorruptDays)
	}
	if got := h.Delegation.MissingFileDays - ch.Delegation.MissingFileDays; int64(got) != inj.CorruptDays+inj.DroppedDays {
		t.Errorf("missing file days grew by %d, injected %d corrupt + %d dropped",
			got, inj.CorruptDays, inj.DroppedDays)
	}
	if h.Delegation.Retries != inj.TransientErrs {
		t.Errorf("retries = %d, injected transient errors = %d",
			h.Delegation.Retries, inj.TransientErrs)
	}
	if h.Delegation.AbandonedReads != 0 {
		t.Errorf("%d reads abandoned; burst 2 must stay within the 4-attempt budget",
			h.Delegation.AbandonedReads)
	}
	if h.DaysProcessed != ch.DaysProcessed {
		t.Errorf("storm changed the scanned day count: %d vs %d",
			h.DaysProcessed, ch.DaysProcessed)
	}

	// The collector redundancy (2 collectors × multiple peers) absorbs the
	// storm: taxonomy proportions stay within 2pp of clean.
	ct, st := clean.Joint.Taxonomy(), storm.Joint.Taxonomy()
	cTot := float64(ct.AdminComplete + ct.AdminPartial + ct.AdminUnused)
	sTot := float64(st.AdminComplete + st.AdminPartial + st.AdminUnused)
	for _, p := range []struct {
		name           string
		clean, stormed float64
	}{
		{"complete", float64(ct.AdminComplete) / cTot, float64(st.AdminComplete) / sTot},
		{"partial", float64(ct.AdminPartial) / cTot, float64(st.AdminPartial) / sTot},
		{"unused", float64(ct.AdminUnused) / cTot, float64(st.AdminUnused) / sTot},
	} {
		if math.Abs(p.clean-p.stormed) > 0.02 {
			t.Errorf("%s share drifted beyond 2pp: clean %.4f storm %.4f",
				p.name, p.clean, p.stormed)
		}
	}

	// Bit-for-bit reproducibility: the same plan injects the same faults
	// and yields the same dataset.
	again, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if *again.Health.Injected != *inj {
		t.Errorf("injection reports differ across identical runs: %+v vs %+v",
			*again.Health.Injected, *inj)
	}
	if !bytes.Equal(datasetBytes(t, storm), datasetBytes(t, again)) {
		t.Error("identical storm runs produced different dataset bytes")
	}
}

// TestFailFastStormErrors: under the same storm the seed policy aborts,
// and the error names the day and collector that broke (the satellite
// error-context requirement).
func TestFailFastStormErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("full wire-mode pipeline run")
	}
	opts := faultOptions("2005-12-31")
	plan := faults.DefaultStorm(7)
	opts.Inject = &plan
	_, err := Run(opts)
	if err == nil {
		t.Fatal("fail-fast run under fault storm succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "pipeline: scanning day ") || !strings.Contains(msg, "collector rrc") {
		t.Errorf("error lacks day/collector context: %v", err)
	}
}

// TestErrorBudgetBacksStop: a storm beyond the budget fails even in
// Degrade mode — mostly-quarantined input must not silently pass.
func TestErrorBudgetBackstop(t *testing.T) {
	if testing.Short() {
		t.Skip("full wire-mode pipeline run")
	}
	opts := faultOptions("2004-06-30")
	plan := faults.Plan{Seed: 3, TruncateRecordRate: 0.9}
	opts.Inject = &plan
	opts.FaultPolicy = Degrade
	if _, err := Run(opts); err == nil {
		t.Fatal("degrade run with 90% truncation passed the error budget")
	} else if !strings.Contains(err.Error(), "error budget exceeded") {
		t.Errorf("unexpected failure: %v", err)
	}
}

// TestChaosScanOverRecycledArchives pins the chaos-mode scan to values
// recorded on the commit before scan began encoding each day over the
// previous day's archives (d2b52a7). Under Inject an archive reaches the
// scanner either as MangleMRT's copy or, when no fault hit it, as the
// encoder's own buffer, which the next day overwrites; the Health account
// and the dataset must not notice, on one shard or on several.
func TestChaosScanOverRecycledArchives(t *testing.T) {
	if testing.Short() {
		t.Skip("full wire-mode pipeline runs")
	}
	const (
		wantDataset = "9eff2ffd7931e6c8d760dbdade8b90e7d7895f979eb4566ba7ce95b47d45443a"
		wantHealth  = "days=274 mrt={Archives:1096 Records:256952 QuarantinedTruncated:565 QuarantinedTails:55 Malformed:0} " +
			"injected={TruncatedRecords:565 TailChops:55 CorruptDays:33 DroppedDays:19 TransientErrs:48 ShortReads:0 Stalls:0}"
	)
	for _, workers := range []int{1, 3} {
		opts := faultOptions("2004-09-30")
		plan := faults.DefaultStorm(7)
		plan.TruncateRecordRate = 0.002 // a storm mild enough to leave most archives whole
		opts.Inject = &plan
		opts.FaultPolicy = Degrade
		opts.Workers = workers
		ds, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		h := ds.Health
		if hit := h.Injected.TruncatedRecords + h.Injected.TailChops; hit == 0 || hit >= h.MRT.Archives {
			t.Fatalf("workers=%d: %d faults over %d archives; want both mangled and untouched archives", workers, hit, h.MRT.Archives)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(datasetBytes(t, ds))); got != wantDataset {
			t.Errorf("workers=%d: dataset digest %s, want %s", workers, got, wantDataset)
		}
		if got := fmt.Sprintf("days=%d mrt=%+v injected=%+v", h.DaysProcessed, h.MRT, *h.Injected); got != wantHealth {
			t.Errorf("workers=%d: health\n got %s\nwant %s", workers, got, wantHealth)
		}
	}
}
