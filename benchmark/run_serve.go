package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"parallellives/internal/router"
	"parallellives/internal/serve"
)

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// medianUS is the median of nanosecond samples, in microseconds.
func medianUS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(s[len(s)/2]) / 1e3
}

// runServe runs serve_direct or serve_routed. Untraced, it is one
// closed-loop window of `seconds` whose first tenth is warm-up. Traced,
// plain and traced windows alternate, then come the sweeps that time
// the layers below the loopback hop on their own.
func runServe(ctx context.Context, wl string, seed int64, seconds float64, traced bool, sz sizing, dir string) (*outcome, *tracer, error) {
	cfg, err := worldConfig(seed, sz.ServeScale, sz.ServeStart, sz.ServeEnd)
	if err != nil {
		return nil, nil, err
	}
	o := newOutcome()
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var (
		fx         *serveFixture
		setupTimes []float64
		setups     []int32
	)
	for i := 0; i < sz.SetupRepeats; i++ {
		if fx != nil {
			fx.close() // only the last repeat's tier serves the windows
		}
		root := tr.begin("setup", noSpan, setupPass(i))
		t0 := time.Now()
		fx, err = setupServe(ctx, tr, root, wl, seed, cfg, sz, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, int32(setupPass(i)))
	}
	defer fx.close()

	gens := make([]*reqGen, sz.Clients)
	for c := range gens {
		gens[c] = fx.table.client(seed, c)
	}
	front := func(rq request, _ int) string { return fx.base + rq.path }
	tally := func(w *window) {
		o.attempted += w.attempted
		o.failed += w.failed
	}

	if !traced {
		total := secondsDuration(seconds)
		w, err := runWindow(ctx, fx, front, gens, total/10, total, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		tally(w)
		p50, err := percentile(w.all, 50)
		if err != nil {
			return nil, nil, err
		}
		o.set("setup_s", median(setupTimes))
		o.set("op_ms", float64(p50)/1e6)
		o.set("ops_per_s", float64(len(w.all))/w.elapsed)
		o.set("alloc_kb_per_op", w.allocKB/float64(len(w.all)))
		o.notef("closed loop, %d clients: %d samples over %.2f s after %.2f s warm-up; p50 %.1f us",
			sz.Clients, len(w.all), w.elapsed, total.Seconds()/10, float64(p50)/1e3)
		o.notef("set-up x%d: %v s", len(setupTimes), setupTimes)
		return o, nil, nil
	}

	layer, hits, misses := "serve", serve.MetricCacheHits, serve.MetricCacheMisses
	if wl == wlServeRouted {
		layer, hits, misses = "router", router.MetricCacheHits, router.MetricCacheMisses
	}

	// Warm-up, then short plain and traced windows in turn, so that drift
	// in the box's speed falls on both sides of the overhead figure. The
	// percentiles are taken over the traced windows' samples together.
	const pairs = 6
	span := secondsDuration(seconds * 0.6 / (2 * pairs))
	w, err := runWindow(ctx, fx, front, gens, 0, secondsDuration(seconds*0.1), nil, 0)
	if err != nil {
		return nil, nil, err
	}
	tally(w)
	before, err := scrapeGauges(ctx, fx.base, hits, misses)
	if err != nil {
		return nil, nil, err
	}
	var (
		plainP50, tracedP50 []float64
		union               window
	)
	for pass := 1; pass <= pairs; pass++ {
		for _, t := range []*tracer{nil, tr} {
			w, err := runWindow(ctx, fx, front, gens, 0, span, t, pass)
			if err != nil {
				return nil, nil, err
			}
			tally(w)
			p50, err := percentile(w.all, 50)
			if err != nil {
				return nil, nil, err
			}
			if t == nil {
				plainP50 = append(plainP50, float64(p50)/1e3)
				continue
			}
			tracedP50 = append(tracedP50, float64(p50)/1e3)
			for c := range union.durs {
				union.durs[c] = append(union.durs[c], w.durs[c]...)
			}
			union.all = append(union.all, w.all...)
			union.failovers += w.failovers
			union.hedgeWins += w.hedgeWins
		}
	}
	after, err := scrapeGauges(ctx, fx.base, hits, misses)
	if err != nil {
		return nil, nil, err
	}
	if dh, dm := after[hits]-before[hits], after[misses]-before[misses]; dh+dm > 0 {
		o.set(layer+".cache_hit_ratio", dh/(dh+dm))
	}
	slices.Sort(union.all)
	p99, err := percentile(union.all, 99)
	if err != nil {
		return nil, nil, err
	}
	for c := class(0); c < numClasses; c++ {
		o.set(fmt.Sprintf("%s.%s_p50_us", layer, classNames[c]), medianUS(union.durs[c]))
	}
	o.set(layer+".p99_us", float64(p99)/1e3)
	o.set("trace.overhead_pct", (median(tracedP50)-median(plainP50))/median(plainP50)*100)
	o.set("trace.spans", float64(tr.count()))
	o.set("lifestore.file_kb", fx.fileKB)
	layerSeconds(o, tr, nil, setups)
	o.notef("%d samples in %d traced windows of %.2f s; loopback p50 %.1f us traced, %.1f us plain (medians of windows)",
		len(union.all), pairs, span.Seconds(), median(tracedP50), median(plainP50))

	gen := fx.table.client(seed, sz.Clients)
	lookup, err := lookupSweep(fx, gen, wl == wlServeRouted, sz)
	if err != nil {
		return nil, nil, err
	}
	o.set("lifestore.lookup_us", lookup)

	if wl == wlServeDirect {
		handlerP50 := handlerSweep(o, fx, gen, sz.SweepRequests)
		o.set("http.loopback_us", medianUS(union.all)-handlerP50)
		return o, tr, nil
	}

	// router.shard_direct_us: the ASN reads sent straight to a replica
	// of the owning range, alternating replicas as the router does, by
	// the same number of clients. The hop is what the router adds to that.
	direct := func(rq request, n int) string {
		urls := fx.replicaURLs[fx.plan.ShardFor(rq.asn)]
		return urls[n%len(urls)] + rq.path
	}
	only := *fx.table
	only.sz.MixSeries, only.sz.MixTaxonomy = 0, 0
	directGens := make([]*reqGen, sz.Clients)
	for c := range directGens {
		directGens[c] = only.client(seed, sz.Clients+1+c)
	}
	w, err = runWindow(ctx, fx, direct, directGens, 0, span, nil, 0)
	if err != nil {
		return nil, nil, err
	}
	tally(w)
	o.set("router.shard_direct_us", w.p50us(classASN))
	o.set("router.hop_us", medianUS(union.durs[classASN])-w.p50us(classASN))
	o.set("router.failovers", float64(union.failovers))
	o.set("router.hedge_wins", float64(union.hedgeWins))
	return o, tr, nil
}

// lookupSweep times Store.Lookup for the ASN reads of a sequence, with
// no HTTP: straight at the store (routed: at the first replica's store
// of the owning range). It returns the median in microseconds.
func lookupSweep(fx *serveFixture, gen *reqGen, routed bool, sz sizing) (float64, error) {
	var durs []int64
	for len(durs) < sz.SweepRequests {
		rq := gen.next()
		if rq.class != classASN {
			continue
		}
		st := fx.stores[0]
		if routed {
			st = fx.stores[fx.plan.ShardFor(rq.asn)*sz.Replicas]
		}
		t0 := time.Now()
		_, _, err := st.Lookup(rq.asn)
		durs = append(durs, int64(time.Since(t0)))
		if err != nil {
			return 0, fmt.Errorf("lookup sweep: %w", err)
		}
	}
	return medianUS(durs), nil
}

// handlerSweep sends the mix into the server's ServeHTTP with a recorder
// and no socket, sets the serve.handler_* metrics and returns the
// overall median in microseconds: what is left of the loopback latency
// is transport. Every response is checked against the reference.
func handlerSweep(o *outcome, fx *serveFixture, gen *reqGen, n int) float64 {
	var (
		durs [numClasses][]int64
		all  []int64
		ms   runtime.MemStats
	)
	recs := make([]*httptest.ResponseRecorder, n)
	paths := make([]string, n)
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := range recs {
		rq := gen.next()
		recs[i], paths[i] = httptest.NewRecorder(), rq.path
		req := httptest.NewRequest(http.MethodGet, rq.path, nil)
		t0 := time.Now()
		fx.server.ServeHTTP(recs[i], req)
		d := int64(time.Since(t0))
		durs[rq.class] = append(durs[rq.class], d)
		all = append(all, d)
	}
	runtime.ReadMemStats(&ms)
	for i, rec := range recs {
		o.attempted++
		if got := (response{rec.Code, bodySum(rec.Body.Bytes())}); got != fx.ref.get(paths[i]) {
			o.failed++
		}
	}
	for c := class(0); c < numClasses; c++ {
		o.set(fmt.Sprintf("serve.handler_%s_us", classNames[c]), medianUS(durs[c]))
	}
	// Counts the recorder and the request the harness builds, too.
	o.set("serve.allocs_per_req", float64(ms.Mallocs-mallocs)/float64(n))
	return medianUS(all)
}
