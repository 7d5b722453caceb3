package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/pipeline"
	"parallellives/internal/router"
	"parallellives/internal/serve"
	"parallellives/internal/stream"
	"parallellives/internal/worldsim"
)

// metricName is DESIGN.md §8.1's naming rule: the project prefix, then
// one of the subsystems the binary publishes under.
var metricName = regexp.MustCompile(`^parallellives_(pipeline_health|pipeline|lifestore|serve|route|stream|runtime)_[a-z0-9_]+$`)

// TestMetricNamesAndCardinality builds every registry the binary
// publishes — a pipeline run, a serve front over a store, a router over
// two in-process ranges, a tailer — and holds each family to the naming
// rules of DESIGN.md §8.1. It then proves label cardinality is bounded:
// no family gains a series between 10 and 500 distinct requested ASNs,
// unknown ones and malformed paths included.
func TestMetricNamesAndCardinality(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	world := worldsim.DefaultConfig()
	world.Scale = 0.005
	world.Start, world.End = dates.MustParse("2006-01-01"), dates.MustParse("2006-03-01")
	opts := pipeline.DefaultOptions()
	opts.World, opts.Wire = world, true
	pipeObs := obs.New()
	opts.Obs = pipeObs
	ds, err := pipeline.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	path := filepath.Join(dir, "lives.snap")
	if err := lifestore.SaveSnapshot(snap, path); err != nil {
		t.Fatal(err)
	}

	// newServer is a serve front over a verified, instrumented file
	// store with hot reload wired, as the serve verb builds it.
	newServer := func(path string) (*serve.Server, *obs.Obs) {
		o := obs.New()
		open := serve.FileOpener(lifestore.Open, path, o.Registry)
		src, closer, source, err := open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closer.Close() })
		sw := serve.NewSwappable(src, closer, source)
		return serve.New(sw, serve.Options{Obs: o, Reloader: serve.NewReloader(sw, open, o.Registry)}), o
	}
	front, frontObs := newServer(path)

	_, shardPaths, err := lifestore.SaveSharded(snap, 2, filepath.Join(dir, "lives.%d.snap"))
	if err != nil {
		t.Fatal(err)
	}
	registries := map[string]*obs.Obs{"pipeline": pipeObs, "serve": frontObs}
	var urls []string
	for i, p := range shardPaths {
		srv, o := newServer(p)
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		urls = append(urls, hs.URL)
		registries[fmt.Sprintf("range %d", i)] = o
	}
	routeObs := obs.New()
	rt, err := router.New(ctx, router.Options{Shards: urls, Obs: routeObs})
	if err != nil {
		t.Fatal(err)
	}
	registries["route"] = routeObs

	tailObs := obs.New()
	tailOpts := opts
	tailOpts.Obs = nil
	days := t.TempDir()
	if _, err := stream.NewTailer(stream.Options{
		Pipeline:      tailOpts,
		Source:        stream.NewDirSource(days, stream.DirOptions{}),
		CheckpointDir: filepath.Join(dir, "ckpt"),
		Obs:           tailObs,
	}); err != nil {
		t.Fatal(err)
	}
	registries["stream"] = tailObs

	// request reads ASN i through both fronts: known ASNs and unknown
	// ones alternate, each with a malformed twin and a series read.
	request := func(i int) {
		a := asn.ASN(4_000_000_000 + i)
		if i%2 == 0 && i/2 < len(snap.Lives) {
			a = snap.Lives[i/2].ASN
		}
		for _, p := range []string{
			fmt.Sprintf("/v1/asn/%s", a),
			fmt.Sprintf("/v1/asn/AS%s-x", a),
			fmt.Sprintf("/v1/rir/all/series?stride=%d", i+1),
			fmt.Sprintf("/v1/no/such/%d", i),
		} {
			for _, h := range []http.Handler{front, rt} {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, p, nil))
			}
		}
	}
	// seriesCounts scrapes every front's /metrics (so the scrape-time
	// gauges are collected) and counts each registry's series per family.
	type family struct{ reg, name string }
	seriesCounts := func() map[family]int {
		for _, h := range []http.Handler{front, rt} {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
		}
		counts := map[family]int{}
		for reg, o := range registries {
			for _, f := range o.Registry.Gather() {
				counts[family{reg, f.Name}] = len(f.Series)
			}
		}
		return counts
	}

	for i := 0; i < 10; i++ {
		request(i)
	}
	at10 := seriesCounts()
	for i := 10; i < 500; i++ {
		request(i)
	}
	at500 := seriesCounts()

	for f, n := range at500 {
		if n > at10[f] {
			t.Errorf("%s: %s grew from %d to %d series between 10 and 500 requested ASNs", f.reg, f.name, at10[f], n)
		}
	}
	subsystems := map[string]bool{}
	for reg, o := range registries {
		for _, f := range o.Registry.Gather() {
			m := metricName.FindStringSubmatch(f.Name)
			if m == nil {
				t.Errorf("%s: family %s is not parallellives_<subsystem>_…", reg, f.Name)
				continue
			}
			subsystems[m[1]] = true
			if f.Kind == obs.KindCounter && !strings.HasSuffix(f.Name, "_total") {
				t.Errorf("%s: counter %s does not end in _total", reg, f.Name)
			}
			if f.Kind == obs.KindHistogram && !strings.HasSuffix(f.Name, "_seconds") {
				t.Errorf("%s: histogram %s does not end in _seconds", reg, f.Name)
			}
			if strings.HasPrefix(f.Name, "parallellives_serve_cache_") {
				// Only the two series benchmark/README.md pins may stay,
				// and they must read 0: a serve front caches nothing.
				if f.Name != serve.MetricCacheHits && f.Name != serve.MetricCacheMisses {
					t.Errorf("%s: serve front publishes %s, but keeps no response cache", reg, f.Name)
				}
				for _, s := range f.Series {
					if s.Value != 0 {
						t.Errorf("%s: %s reads %v, want 0", reg, f.Name, s.Value)
					}
				}
			}
		}
	}
	if len(subsystems) != 7 {
		t.Errorf("families span subsystems %v, want all seven", subsystems)
	}
}
