package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/obs"
	"parallellives/internal/registry"
	"parallellives/internal/worldsim"
)

// smallOptions runs the full pipeline over a reduced world: a shorter
// window keeps the day loops fast while all mechanisms stay exercised.
func smallOptions() Options {
	opts := DefaultOptions()
	opts.World.Scale = 0.02
	opts.World.Start = dates.MustParse("2004-01-01")
	opts.World.End = dates.MustParse("2009-12-31")
	return opts
}

func runSmall(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Run(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

var smallDS *Dataset

// worlds caches worldOf's regenerations.
var worlds = map[*Dataset]*worldsim.World{}

// worldOf regenerates the world ds was built from, for the tests that
// check a run against its planted ground truth: a Dataset keeps no world,
// and worldsim.Generate is deterministic.
func worldOf(ds *Dataset) *worldsim.World {
	w, ok := worlds[ds]
	if !ok {
		w = worldsim.Generate(ds.Options.World)
		worlds[ds] = w
	}
	return w
}

func getSmall(t *testing.T) *Dataset {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	if smallDS == nil {
		smallDS = runSmall(t)
	}
	return smallDS
}

func TestPipelineRecoversGroundTruthLifetimes(t *testing.T) {
	ds := getSmall(t)
	w := worldOf(ds)

	// Every ground-truth life published in the files must be covered by
	// some reconstructed lifetime, with a start close to its publication
	// date (file granularity + registry adoption dates allow slack).
	missed, total := 0, 0
	for _, l := range w.Lives {
		if l.FileFrom > w.Config.End {
			continue
		}
		mid := dates.Max(l.FileFrom, w.Config.Start).AddDays(l.Alloc.End.Sub(l.FileFrom) / 2)
		if mid > w.Config.End {
			mid = w.Config.End
		}
		total++
		found := false
		for _, ai := range ds.Admin.Of(l.ASN) {
			if ds.Admin.Lifetimes[ai].Span.Contains(mid) {
				found = true
				break
			}
		}
		if !found {
			missed++
		}
	}
	if total == 0 {
		t.Fatal("no ground-truth lives to check")
	}
	// AfriNIC publishes only from 2005; everything else should be found.
	if frac := float64(missed) / float64(total); frac > 0.06 {
		t.Errorf("%d/%d (%.1f%%) ground-truth lives not covered by reconstructed lifetimes",
			missed, total, 100*frac)
	}
}

func TestPipelineRegDatesRestored(t *testing.T) {
	ds := getSmall(t)
	w := worldOf(ds)

	// The RIPE placeholder quirk must be repaired: reconstructed
	// lifetimes of placeholder lives must carry the true old date, not
	// 1993-09-01 — unless the true date IS close to the placeholder.
	placeholder := dates.MustParse("1993-09-01")
	checked := 0
	for _, l := range w.Lives {
		if !l.PlaceholderQuirk || l.RegDate == placeholder {
			continue
		}
		for _, ai := range ds.Admin.Of(l.ASN) {
			al := ds.Admin.Lifetimes[ai]
			if !al.Span.Contains(dates.Max(l.FileFrom, w.Config.Start)) {
				continue
			}
			checked++
			if al.RegDate == placeholder {
				t.Errorf("ASN %v still shows the placeholder date", l.ASN)
			} else if al.RegDate != l.RegDate {
				t.Errorf("ASN %v regdate = %v, want %v", l.ASN, al.RegDate, l.RegDate)
			}
		}
	}
	if checked == 0 {
		t.Skip("no placeholder lives in this world")
	}
}

func TestPipelineMistakenAllocationsDropped(t *testing.T) {
	ds := getSmall(t)
	if ds.Restored.Report.MistakenRecordsDropped == 0 {
		t.Error("expected mistaken allocations to be dropped")
	}
	st := registry.Build(worldOf(ds)).InjectionStats()
	if ds.Restored.Report.MistakenRecordsDropped < st.MistakenAllocASNs {
		t.Errorf("dropped %d mistaken records, archive injected %d ASNs",
			ds.Restored.Report.MistakenRecordsDropped, st.MistakenAllocASNs)
	}
}

func TestPipelineTaxonomyShapes(t *testing.T) {
	ds := getSmall(t)
	tx := ds.Joint.Taxonomy()
	adminTotal := tx.AdminComplete + tx.AdminPartial + tx.AdminUnused
	if adminTotal != len(ds.Admin.Lifetimes) {
		t.Fatalf("taxonomy does not partition admin lives: %d vs %d",
			adminTotal, len(ds.Admin.Lifetimes))
	}
	opTotal := tx.OpComplete + tx.OpPartial + tx.OpOutside
	if opTotal != len(ds.Ops.Lifetimes) {
		t.Fatalf("taxonomy does not partition op lives: %d vs %d",
			opTotal, len(ds.Ops.Lifetimes))
	}
	t.Logf("taxonomy: %+v", tx)
	// Complete overlap dominates (paper: 78.6%); unused is substantial
	// (paper: ~18%); partial is small (paper: 3.4%).
	fc := float64(tx.AdminComplete) / float64(adminTotal)
	fu := float64(tx.AdminUnused) / float64(adminTotal)
	fp := float64(tx.AdminPartial) / float64(adminTotal)
	if fc < 0.5 {
		t.Errorf("complete-overlap share %.2f too low", fc)
	}
	if fu < 0.08 || fu > 0.45 {
		t.Errorf("unused share %.2f out of band", fu)
	}
	if fp > 0.2 {
		t.Errorf("partial share %.2f too high", fp)
	}
}

func TestPipelineDetectsPlantedHijacks(t *testing.T) {
	ds := getSmall(t)
	out := ds.Joint.Outside()
	planted := worldOf(ds).PostDeallocHijacks
	if len(planted) == 0 {
		t.Skip("no planted post-dealloc hijacks in this window")
	}
	detected := 0
	for _, seg := range planted {
		for _, f := range out.Findings {
			if f.ASN == seg.ASN && f.Kind == core.OutPostDealloc && f.Hijack &&
				f.Span.Overlaps(seg.Span) {
				detected++
				break
			}
		}
	}
	if detected < len(planted)*2/3 {
		t.Errorf("detected %d/%d planted post-dealloc hijacks", detected, len(planted))
	}
}

func TestPipelineDetectsPlantedSquats(t *testing.T) {
	ds := getSmall(t)
	planted := worldOf(ds).DormantSquats
	if len(planted) == 0 {
		t.Skip("no squats planted in this window")
	}
	findings := ds.Joint.DetectDormantSquats(core.DefaultSquatParams())
	detected := 0
	for _, seg := range planted {
		for _, f := range findings {
			if f.ASN == seg.ASN && f.OpSpan.Overlaps(seg.Span) {
				detected++
				break
			}
		}
	}
	if detected < len(planted)*2/3 {
		t.Errorf("detected %d/%d planted dormant squats", detected, len(planted))
	}
}

func TestPipelineClassifiesFatFingers(t *testing.T) {
	ds := getSmall(t)
	planted := worldOf(ds).FatFingers
	if len(planted) == 0 {
		t.Skip("no fat fingers in this window")
	}
	out := ds.Joint.Outside()
	matched, totalVisible := 0, 0
	for _, seg := range planted {
		if seg.VictimASN == 0 {
			continue // unexplained noise population
		}
		totalVisible++
		for _, f := range out.Findings {
			if f.ASN == seg.ASN &&
				(f.Kind == core.OutFatFingerPrepend || f.Kind == core.OutFatFingerMOAS) {
				matched++
				break
			}
		}
	}
	if totalVisible > 0 && matched < totalVisible/2 {
		t.Errorf("classified %d/%d planted fat-finger origins", matched, totalVisible)
	}
	if out.LargeLeaks == 0 && len(worldOf(ds).LargeLeaks) > 0 {
		t.Error("no large leaks classified despite planted population")
	}
}

// TestPipelineWireAndDirectAgree pins what Wire leaves unchanged: the
// Listing 1 datasets, byte for byte, and so the lifetimes and the
// taxonomy. The scan counts differ (only the wire path has MRT records),
// so they are not compared.
func TestPipelineWireAndDirectAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("wire mode is slow")
	}
	opts := smallOptions()
	opts.World.Scale = 0.01
	opts.World.End = dates.MustParse("2005-12-31")
	direct, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Wire = true
	wire, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, write := range []struct {
		name string
		json func(*Dataset, io.Writer) error
	}{{"admin", (*Dataset).WriteAdminJSON}, {"op", (*Dataset).WriteOpJSON}} {
		var d, w bytes.Buffer
		if err := write.json(direct, &d); err != nil {
			t.Fatal(err)
		}
		if err := write.json(wire, &w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Bytes(), w.Bytes()) {
			t.Errorf("%s datasets differ: direct %d bytes, wire %d bytes", write.name, d.Len(), w.Len())
		}
	}
	dt, wt := direct.Joint.Taxonomy(), wire.Joint.Taxonomy()
	if dt != wt {
		t.Errorf("taxonomies differ: direct %+v wire %+v", dt, wt)
	}
}

// TestSquatEvidenceAtDefaultWindow is the §6.1.2 evidence EXPERIMENTS.md
// quotes, at scale 0.02 over the default window: the dormant-squat
// filter recovers at least 90% of the planted squats, and the
// simulation's hijack factory carries the largest coordinated group.
// The window matters: over smallOptions' 2004-2009 the factory's group
// is not the largest, so this cannot share getSmall's dataset.
func TestSquatEvidenceAtDefaultWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("17-year pipeline run")
	}
	opts := DefaultOptions()
	opts.World.Scale = 0.02
	ds, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := worldOf(ds)
	findings := ds.Joint.DetectDormantSquats(core.DefaultSquatParams())
	detected := 0
	for _, seg := range w.DormantSquats {
		for _, f := range findings {
			if f.ASN == seg.ASN && f.OpSpan.Overlaps(seg.Span) {
				detected++
				break
			}
		}
	}
	if planted := len(w.DormantSquats); planted == 0 || detected*10 < planted*9 {
		t.Errorf("recovered %d of %d planted dormant squats, want at least 90%%", detected, planted)
	}
	groups := core.CoordinatedGroups(findings, 2)
	factory := len(groups[w.HijackFactory])
	for up, g := range groups {
		if up != w.HijackFactory && len(g) >= factory {
			t.Errorf("upstream AS%s carries %d squats, the hijack factory AS%s only %d", up, len(g), w.HijackFactory, factory)
		}
	}
	t.Logf("recall %d/%d; hijack factory AS%s carries %d of %d findings", detected, len(w.DormantSquats), w.HijackFactory, factory, len(findings))
}

func TestListingOneJSONShape(t *testing.T) {
	ds := getSmall(t)
	var buf bytes.Buffer
	if err := ds.WriteAdminJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"ASN", "regDate", "startdate", "enddate", "status", "registry"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("admin record missing %q", k)
		}
	}
	buf.Reset()
	if err := ds.WriteOpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec = json.NewDecoder(strings.NewReader(buf.String()))
	if err := dec.Decode(&rec); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"ASN", "startdate", "enddate"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("op record missing %q", k)
		}
	}
}

func TestConesProvider(t *testing.T) {
	ds := getSmall(t)
	cones := ds.Truth
	found := false
	for _, a := range worldOf(ds).TransitASNs {
		if n, ok := cones.ConeSize(a); ok && n > 0 {
			found = true
		}
	}
	if !found {
		t.Error("transit ASNs should have non-zero cones")
	}
	if _, ok := cones.ConeSize(asn.ASN(4_000_000_123)); ok {
		t.Error("unknown ASN should have no cone")
	}
}

func TestAliveSeriesMonotonicOverall(t *testing.T) {
	ds := getSmall(t)
	s := ds.Joint.Alive(ds.Window())
	// The overall administrative count grows strongly over the window.
	n := len(s.AdminOverall)
	first := avgInts(s.AdminOverall[100:200])
	last := avgInts(s.AdminOverall[n-100:])
	if last <= first {
		t.Errorf("admin alive count did not grow: %.0f -> %.0f", first, last)
	}
	// The operational line sits below the administrative line.
	opLast := avgInts(s.OpOverall[n-100:])
	if opLast >= last {
		t.Errorf("op alive (%.0f) should be below admin alive (%.0f)", opLast, last)
	}
	// Per-RIR admin sums to slightly more than overall (transfers can
	// double-count at boundaries) but must be close.
	sum := 0
	for r := range s.AdminPerRIR {
		sum += s.AdminPerRIR[r][n-1]
	}
	if sum < s.AdminOverall[n-1] {
		t.Errorf("per-RIR sum %d below overall %d", sum, s.AdminOverall[n-1])
	}
}

func avgInts(xs []int) float64 {
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}

func TestTimeoutSweepShapes(t *testing.T) {
	ds := getSmall(t)
	sweep := core.SweepTimeouts(ds.Activity, ds.Admin, []int{1, 15, 30, 50, 100})
	for i := 1; i < len(sweep); i++ {
		if sweep[i].GapFractionBelow < sweep[i-1].GapFractionBelow {
			t.Error("gap CDF must be non-decreasing in the timeout")
		}
		if sweep[i].OpLifetimes > sweep[i-1].OpLifetimes {
			t.Error("op lifetime count must be non-increasing in the timeout")
		}
		if sweep[i].AdminWithOneOrLessOpLives < sweep[i-1].AdminWithOneOrLessOpLives {
			t.Error("one-or-less fraction must be non-decreasing in the timeout")
		}
	}
	t.Logf("sweep: %+v", sweep)
}

func TestPipelineDeterministic(t *testing.T) {
	opts := smallOptions()
	opts.World.Scale = 0.005
	opts.World.End = dates.MustParse("2005-12-31")
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Admin.Lifetimes) != len(b.Admin.Lifetimes) {
		t.Fatal("admin lifetime counts differ between identical runs")
	}
	for i := range a.Admin.Lifetimes {
		if a.Admin.Lifetimes[i] != b.Admin.Lifetimes[i] {
			t.Fatalf("lifetime %d differs", i)
		}
	}
	if len(a.Ops.Lifetimes) != len(b.Ops.Lifetimes) {
		t.Fatal("op lifetime counts differ")
	}
}

// worldsimSanity double-checks the reduced-window world is non-trivial.
func TestSmallWorldNonTrivial(t *testing.T) {
	ds := getSmall(t)
	if len(ds.Admin.Lifetimes) < 300 {
		t.Errorf("only %d admin lifetimes; world too small to be meaningful",
			len(ds.Admin.Lifetimes))
	}
	if len(ds.Ops.Lifetimes) < 200 {
		t.Errorf("only %d op lifetimes", len(ds.Ops.Lifetimes))
	}
	var _ = worldsim.VisFull // keep import
}

// TestShortWindowsRun pins that the whole pipeline — not just the
// generator — finishes on windows shorter than the anomaly planters'
// margins: `run -start 2010-01-01 -end 2010-01-10` used to panic.
func TestShortWindowsRun(t *testing.T) {
	for _, days := range []int{1, 10, 41} {
		opts := DefaultOptions()
		opts.World.Scale = 0.005
		opts.World.Start = dates.MustParse("2010-01-01")
		opts.World.End = opts.World.Start.AddDays(days - 1)
		opts.Wire = true
		ds, err := Run(opts)
		if err != nil {
			t.Fatalf("%d-day window: %v", days, err)
		}
		if len(ds.Admin.Lifetimes) == 0 {
			t.Errorf("%d-day window: no administrative lifetimes", days)
		}
	}
}

// TestRunContextCancellation holds RunContext to its cancellation
// points: a ctx cancelled before the run returns at once, and one
// cancelled once the scan has processed a day stops the run within
// seconds, at one worker and at two.
func TestRunContextCancellation(t *testing.T) {
	opts := DefaultOptions()
	opts.World.Scale = 0.01
	opts.World.Start = dates.MustParse("2004-01-01")
	opts.World.End = dates.MustParse("2005-12-31")
	opts.Wire = true

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ds, err := RunContext(ctx, opts); !errors.Is(err, context.Canceled) || ds != nil {
		t.Fatalf("pre-cancelled ctx: got (%v, %v), want (nil, context.Canceled)", ds, err)
	}

	type result struct {
		ds  *Dataset
		err error
	}
	for _, workers := range []int{1, 2} {
		opts := opts
		opts.Workers = workers
		opts.Obs = obs.New()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan result, 1)
		go func() {
			ds, err := RunContext(ctx, opts)
			done <- result{ds, err}
		}()
		tick := time.NewTicker(time.Millisecond)
		for days := 0.0; days == 0; {
			select {
			case r := <-done:
				cancel()
				t.Fatalf("workers=%d: run returned (err %v) before any scanned day was seen", workers, r.err)
			case <-tick.C:
				days, _ = opts.Obs.Registry.Value(MetricDaysProcessed)
			}
		}
		tick.Stop()
		cancel()
		select {
		case r := <-done:
			if !errors.Is(r.err, context.Canceled) || r.ds != nil {
				t.Errorf("workers=%d: cancelled mid-scan: got (%v, %v), want (nil, context.Canceled)", workers, r.ds, r.err)
			}
			window := opts.World.End.Sub(opts.World.Start) + 1
			if days, _ := opts.Obs.Registry.Value(MetricDaysProcessed); int(days) >= window {
				t.Errorf("workers=%d: the scan ran all %d days after the cancel", workers, window)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: run still going 5 s after cancel", workers)
		}
	}
}

// TestRunContextLensOverlap holds the Workers > 1 build, where the admin
// lens runs beside the scan, to the sequential run's failure behaviour:
// (i) a failing admin lens returns the Workers=1 error, also when the
// scan fails too, and stops the scan early; (ii) a cancel while both
// lenses run returns context.Canceled and no dataset; (iii) on every
// path the goroutine count settles back to its value before the call.
func TestRunContextLensOverlap(t *testing.T) {
	opts := DefaultOptions()
	opts.World.Scale = 0.01
	opts.World.Start = dates.MustParse("2004-01-01")
	opts.World.End = dates.MustParse("2006-12-31")
	opts.Wire = true
	window := opts.World.End.Sub(opts.World.Start) + 1

	settled := func(path string, before int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after RunContext returned, %d before", path, runtime.NumGoroutine(), before)
			}
		}
	}

	// (i) Transient bursts longer than the retrier's 4 attempts abandon
	// delegation reads, which FailFast turns into an admin-lens error;
	// the second plan also chops MRT archive tails, so the scan fails too.
	for _, plan := range []faults.Plan{
		{Seed: 5, TransientRate: 0.01, TransientBurst: 6},
		{Seed: 5, TransientRate: 0.01, TransientBurst: 6, TailChopRate: 0.05},
	} {
		opts := opts
		opts.Inject = &plan
		opts.Workers = 1
		_, want := RunContext(context.Background(), opts)
		if want == nil || !strings.Contains(want.Error(), "delegation day reads abandoned") {
			t.Fatalf("%+v: Workers=1 returned %v, want the abandoned-reads error", plan, want)
		}
		opts.Workers = 2
		opts.Obs = obs.New()
		before := runtime.NumGoroutine()
		ds, err := RunContext(context.Background(), opts)
		settled("admin failure", before)
		if ds != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%+v: Workers=2 returned (%v, %v), want (nil, %v)", plan, ds, err, want)
		}
		if days, _ := opts.Obs.Registry.Value(MetricDaysProcessed); int(days) >= window {
			t.Errorf("%+v: the scan ran all %d days after the admin lens failed", plan, window)
		}
	}

	// (ii) Cancel once the scan has finished a day, while the admin lens
	// is held unfinished by its ctx.
	opts.Workers = 2
	opts.Obs = obs.New()
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &heldCtx{Context: parent, tracer: opts.Obs.Tracer}
	before := runtime.NumGoroutine()
	type result struct {
		ds  *Dataset
		err error
	}
	done := make(chan result, 1)
	go func() {
		ds, err := RunContext(ctx, opts)
		done <- result{ds, err}
	}()
	for days := 0.0; days == 0; time.Sleep(time.Millisecond) {
		days, _ = opts.Obs.Registry.Value(MetricDaysProcessed)
	}
	cancel()
	var r result
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run still going 5 s after cancel")
	}
	settled("cancel", before)
	if !errors.Is(r.err, context.Canceled) || r.ds != nil {
		t.Errorf("cancelled: got (%v, %v), want (nil, context.Canceled)", r.ds, r.err)
	}
	if !ctx.held.Load() {
		t.Error("the admin lens never checked the caller's ctx once restoration started")
	}
	if root := opts.Obs.Tracer.Roots()[0]; root.Child("segment.admin") != nil {
		t.Error("the admin lens finished before the cancel; nothing ran beside the scan")
	}
}

// heldCtx holds a run's admin lens unfinished until the test cancels:
// once the run's restore span exists, the first Done or Err call made
// before the cancel waits for it (at most 10 s) and records that it
// held. Until the cancel only the admin lens, which keeps the caller's
// ctx, makes such a call; the scan checks its own derived ctx. So the
// scan can land a day while the lens is held only if the two run side
// by side.
type heldCtx struct {
	context.Context
	tracer *obs.Tracer
	held   atomic.Bool
}

func (c *heldCtx) Done() <-chan struct{} {
	c.hold()
	return c.Context.Done()
}

func (c *heldCtx) Err() error {
	c.hold()
	return c.Context.Err()
}

func (c *heldCtx) hold() {
	if c.Context.Err() != nil {
		return
	}
	if roots := c.tracer.Roots(); len(roots) == 0 || roots[0].Child("restore") == nil {
		return
	}
	if !c.held.CompareAndSwap(false, true) {
		return
	}
	select {
	case <-c.Context.Done():
	case <-time.After(10 * time.Second):
	}
}
