package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Pass ids group spans: set-up repeats count down from -1, passes count
// up from 1.
func setupPass(i int) int { return -1 - i }

// layerSeconds fills every `<span name>_s` per-layer metric whose spans
// the tracer holds: the median over the traced passes when the layer
// ran inside passes, else the median over the set-up repeats.
func layerSeconds(o *outcome, tr *tracer, passes, setups []int32) {
	alias := map[string]string{"restore.self_s": "restore", "harness.unattributed_s": "pass"}
	byName := selfByName(tr.spans)
	for _, m := range perLayer {
		name, ok := alias[m.Name]
		if !ok {
			if name, ok = strings.CutSuffix(m.Name, "_s"); !ok {
				continue
			}
		}
		byPass, ok := byName[name]
		if !ok {
			continue
		}
		if v := medianOver(byPass, passes); v > 0 {
			o.set(m.Name, v)
		} else {
			o.set(m.Name, medianOver(byPass, setups))
		}
	}
}

// runBatch runs archive_analyse or sim_run. Untraced, it times whole
// passes for `seconds`; traced, it times the layered pass with and
// without spans, in turn, and derives the per-layer metrics.
func runBatch(ctx context.Context, wl string, seed int64, seconds float64, traced bool, sz sizing, dir string) (*outcome, *tracer, error) {
	cfg, err := worldConfig(seed, sz.BatchScale, sz.BatchStart, sz.BatchEnd)
	if err != nil {
		return nil, nil, err
	}
	o := newOutcome()
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var (
		fx         *batchFixture
		setupTimes []float64
		setups     []int32
	)
	for i := 0; i < sz.SetupRepeats; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if i > 0 {
			// Only the last repeat's archive is kept for the passes.
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", i-1))); err != nil {
				return nil, nil, err
			}
		}
		root := tr.begin("setup", noSpan, setupPass(i))
		t0 := time.Now()
		if wl == wlArchiveAnalyse {
			fx, err = setupArchive(ctx, tr, root, cfg, sub)
		} else {
			fx, err = setupSim(ctx, tr, root, cfg)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, int32(setupPass(i)))
	}

	// check counts one pass and compares its digest with the reference.
	check := func(digest uint64) {
		o.attempted++
		if digest != fx.ref {
			o.failed++
		}
	}
	// layered is the pass that carries spans: on archive_analyse it is
	// the timed operation itself, on sim_run the harness's sequential
	// decomposition of pipeline.Run.
	layered := func(tr *tracer, pass int) (*analysis, float64, uint64, error) {
		var a *analysis
		secs, alloc, err := timedPass(func() (err error) {
			if wl == wlArchiveAnalyse {
				a, err = fx.archivePass(ctx, tr, pass)
			} else {
				a, err = fx.simLayeredPass(ctx, tr, pass)
			}
			return err
		})
		if err != nil {
			return nil, 0, 0, err
		}
		check(a.digest())
		return a, secs, alloc, nil
	}
	// operation is the timed end-to-end pass.
	operation := func() (float64, uint64, error) {
		if wl == wlArchiveAnalyse {
			_, secs, alloc, err := layered(nil, 0)
			return secs, alloc, err
		}
		var digest uint64
		secs, alloc, err := timedPass(func() (err error) {
			digest, err = fx.simPass(ctx)
			return err
		})
		if err == nil {
			check(digest)
		}
		return secs, alloc, err
	}

	begin := time.Now()
	elapsed := func() float64 { return time.Since(begin).Seconds() }
	if _, _, err := operation(); err != nil { // warm-up: page cache, heap size
		return nil, nil, err
	}

	if !traced {
		var secs, allocKB []float64
		for len(secs) < sz.MinPasses || elapsed() < seconds {
			s, a, err := operation()
			if err != nil {
				return nil, nil, err
			}
			secs = append(secs, s)
			allocKB = append(allocKB, float64(a)/1024)
		}
		var total float64
		for _, s := range secs {
			total += s
		}
		q1, q3 := quartiles(secs)
		o.set("setup_s", median(setupTimes))
		o.set("op_ms", median(secs)*1000)
		o.set("ops_per_s", float64(len(secs))/total)
		o.set("alloc_kb_per_op", median(allocKB))
		o.notef("%d timed passes after 1 warm-up; pass quartiles %.4f / %.4f / %.4f s", len(secs), q1, median(secs), q3)
		o.notef("set-up x%d: %v s", len(setupTimes), setupTimes)
		return o, nil, nil
	}

	// Traced: plain and traced layered passes alternate, so that drift
	// in the box's speed falls on both sides of the overhead figure.
	var (
		plain, withSpans []float64
		passes           []int32
		last             *analysis
	)
	for len(passes) < sz.TracedPasses || elapsed() < 0.6*seconds {
		_, s, _, err := layered(nil, 0)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, s)
		id := len(passes) + 1
		a, s, _, err := layered(tr, id)
		if err != nil {
			return nil, nil, err
		}
		withSpans = append(withSpans, s)
		passes = append(passes, int32(id))
		last = a
	}
	layerSeconds(o, tr, passes, setups)

	var feed dayFeed = fx.newSimFeed()
	if wl == wlArchiveAnalyse {
		feed = fx.newDirFeed()
	}
	decode, err := decodeSweep(ctx, feed)
	if err != nil {
		return nil, nil, err
	}
	o.set("mrt.decode_s", decode)
	o.set("bgpscan.self_s", o.values["bgpscan.observe_s"]-decode)

	layeredS := median(withSpans)
	o.set("harness.layered_pass_s", layeredS)
	o.set("trace.overhead_pct", (layeredS-median(plain))/median(plain)*100)
	o.set("trace.spans", float64(tr.count()))

	mb := float64(last.mrtBytes) / (1 << 20)
	o.set("registry.files", float64(last.files))
	o.set("restore.runs", float64(last.runs))
	o.set("core.admin_lifetimes", float64(len(last.admin)))
	o.set("core.op_lifetimes", float64(len(last.ops)))
	o.set("bgpscan.records", float64(last.stats.RIBRecords+last.stats.UpdateMessages))
	o.set("bgpscan.routes", float64(last.stats.Routes))
	o.set("bgpscan.drops", float64(last.stats.DropPrefixLen+last.stats.DropLoop+last.stats.DropMalformed+last.stats.DropLowVis))
	// The same bytes are encoded once and scanned once; which layer they
	// are counted under says where in the run that happened.
	o.set("collector.days", float64(last.days))
	o.set("collector.mrt_mb", mb)
	if wl == wlArchiveAnalyse {
		o.set("stream.mrt_mb", mb)
		o.set("worldsim.lives", float64(fx.lives))
	} else {
		o.set("worldsim.lives", float64(last.lives))

		// The parallel operation itself, for the speed-up over Workers=1.
		var par []float64
		for i := 0; i < sz.TracedPasses; i++ {
			s, _, err := operation()
			if err != nil {
				return nil, nil, err
			}
			par = append(par, s)
		}
		w1 := o.values["pipeline.run_workers1_s"]
		o.set("pipeline.parallel_speedup", w1/median(par))
		o.set("pipeline.wiring_s", w1-(layeredS-o.values["harness.unattributed_s"]))
		o.notef("pipeline.Run on all cores: %.4f s median of %d", median(par), len(par))
	}
	o.notef("%d traced and %d plain layered passes; medians %.4f / %.4f s", len(withSpans), len(plain), layeredS, median(plain))
	return o, tr, nil
}
