package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
	"parallellives/internal/router"
	"parallellives/internal/serve"
	"parallellives/internal/worldsim"
)

// serveFixture is a running tier: what set-up leaves for the windows of
// a serve workload. Everything listens on loopback inside the harness
// process.
type serveFixture struct {
	base  string // the URL clients read from: the server, or the router
	table *reqTable
	ref   *reference

	// serve_direct: the server itself, for the in-process handler sweep.
	server *serve.Server
	// stores holds the opened store (direct) or one per replica, range
	// by range (routed); replicaURLs[range] lists that range's replicas.
	stores      []*lifestore.Store
	plan        lifestore.ShardPlan
	replicaURLs [][]string

	fileKB float64
	stops  []func()
}

// close stops every listener and waits for its goroutine, then closes
// the stores.
func (fx *serveFixture) close() {
	for i := len(fx.stops) - 1; i >= 0; i-- {
		fx.stops[i]()
	}
	for _, st := range fx.stores {
		st.Close() // read-only stores: nothing to lose on close
	}
}

// listen serves h on a loopback port with the production server's
// timeouts, and returns its URL and a stop function that waits for the
// serving goroutine to end.
func (fx *serveFixture) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := serve.NewHTTPServer(h, serve.HTTPOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	fx.stops = append(fx.stops, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

func fileKB(paths ...string) (float64, error) {
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return float64(total) / 1024, nil
}

// setupServe builds the snapshot (a pipeline run, captured), persists
// it, opens it and brings the tier up: one server over a heap-opened
// file for serve_direct; ranges x replicas servers over mmap-opened
// shard files behind a router for serve_routed.
func setupServe(ctx context.Context, tr *tracer, root spanID, wl string, seed int64, cfg worldsim.Config, sz sizing, dir string) (_ *serveFixture, err error) {
	fx := &serveFixture{}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	sp := tr.begin("pipeline.snapshot_run", root, 0)
	opts := pipeline.DefaultOptions()
	opts.World = cfg
	ds, err := pipeline.RunContext(ctx, opts)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("snapshot run: %w", err)
	}
	sp = tr.begin("lifestore.capture", root, 0)
	snap := lifestore.Capture(ds)
	tr.end(sp)

	if wl == wlServeDirect {
		path := filepath.Join(dir, "lives.snap")
		sp = tr.begin("lifestore.save", root, 0)
		err = lifestore.SaveSnapshot(snap, path)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if fx.fileKB, err = fileKB(path); err != nil {
			return nil, err
		}
		sp = tr.begin("lifestore.open", root, 0)
		st, err := lifestore.Open(path)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		fx.stores = append(fx.stores, st)
		sp = tr.begin("lifestore.verify", root, 0)
		err = st.VerifyBlocks()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		fx.server = serve.New(st, serve.Options{CacheSize: sz.CacheSize})
		if fx.base, err = fx.listen(fx.server); err != nil {
			return nil, err
		}
	} else {
		sp = tr.begin("lifestore.shard_save", root, 0)
		plan, paths, err := lifestore.SaveSharded(snap, sz.Ranges, filepath.Join(dir, "lives.%d.snap"))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		fx.plan = plan
		if fx.fileKB, err = fileKB(paths...); err != nil {
			return nil, err
		}
		var urls []string
		for i, path := range paths {
			fx.replicaURLs = append(fx.replicaURLs, nil)
			for j := 0; j < sz.Replicas; j++ {
				sp = tr.begin("lifestore.open_mapped", root, 0)
				st, err := lifestore.OpenMapped(path)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				fx.stores = append(fx.stores, st)
				srv := serve.New(st, serve.Options{CacheSize: sz.CacheSize, Replica: fmt.Sprintf("range%d-replica%d", i, j)})
				url, err := fx.listen(srv)
				if err != nil {
					return nil, err
				}
				fx.replicaURLs[i] = append(fx.replicaURLs[i], url)
				urls = append(urls, url)
			}
		}
		sp = tr.begin("router.handshake", root, 0)
		// No Start: no background probes and no federation scrapes, so the
		// windows measure the request path alone. Hedging stays off.
		rt, err := router.New(ctx, router.Options{Shards: urls, CacheSize: sz.CacheSize, ScrapeInterval: -1})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if fx.base, err = fx.listen(rt); err != nil {
			return nil, err
		}
	}

	fx.ref = &reference{h: serve.New(lifestore.NewInMemory(snap), serve.Options{}), seen: make(map[string]response)}
	population := make([]asn.ASN, 0, len(snap.Lives))
	for _, l := range snap.Lives {
		population = append(population, l.ASN)
	}
	fx.table = newReqTable(seed, population, sz)
	return fx, nil
}

// response is what the harness compares of a reply: its status and a
// hash of its body.
type response struct {
	status int
	sum    uint64
}

func bodySum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// reference answers paths from a serve.Server over the in-memory
// snapshot, never over a file or a router: what every tier must return.
type reference struct {
	h    http.Handler
	mu   sync.Mutex
	seen map[string]response
}

func (r *reference) get(path string) response {
	r.mu.Lock()
	defer r.mu.Unlock()
	if resp, ok := r.seen[path]; ok {
		return resp
	}
	w := httptest.NewRecorder()
	r.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	resp := response{status: w.Code, sum: bodySum(w.Body.Bytes())}
	r.seen[path] = resp
	return resp
}

// window is one closed-loop measurement: its samples after warm-up.
type window struct {
	durs      [numClasses][]int64 // ns per class
	all       []int64             // every class, ascending
	elapsed   float64             // seconds the samples span
	attempted int64               // every request sent, warm-up included
	failed    int64
	allocKB   float64 // heap allocated over the timed part, whole process
	failovers int64
	hedgeWins int64
}

func (w *window) p50us(c class) float64 { return medianUS(w.durs[c]) }

// sampled is a response kept for the body check after the window.
type sampled struct {
	path string
	got  response
}

// clientLog is what one client goroutine records; nothing is shared
// while the window runs.
type clientLog struct {
	class     []class
	start     []time.Time // traced windows only
	dur       []int64
	attempted int64
	failed    int64
	failovers int64
	hedgeWins int64
	checks    []sampled
	err       error
}

// runWindow drives one closed-loop client per generator for total,
// discarding the first warm of it. Each client waits for its reply before sending
// its next request, on its own keep-alive connection. target maps a
// request to the URL that should answer it. With a tracer, each request
// also becomes a span under a window span and the router's failover and
// hedge headers are counted.
func runWindow(ctx context.Context, fx *serveFixture, target func(request, int) string, gens []*reqGen,
	warm, total time.Duration, tr *tracer, pass int) (*window, error) {
	clients := len(gens)
	transport := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	root := tr.begin("window", noSpan, pass)
	begin := time.Now()
	warmEnd, end := begin.Add(warm), begin.Add(total)
	every := int64(fx.table.sz.SampleEvery)

	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		log := &clientLog{}
		logs[c] = log
		gen := gens[c]
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				rq := gen.next()
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, target(rq, int(log.attempted)), nil)
				if err != nil {
					log.err = err
					return
				}
				log.attempted++
				resp, err := hc.Do(req)
				if err != nil {
					log.failed++
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				dur := time.Since(t0)
				if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound) {
					log.failed++
					continue
				}
				if log.attempted%every == 0 {
					log.checks = append(log.checks, sampled{rq.path, response{resp.StatusCode, bodySum(buf.Bytes())}})
				}
				if t0.Before(warmEnd) {
					continue
				}
				log.class = append(log.class, rq.class)
				log.dur = append(log.dur, int64(dur))
				if tr != nil {
					log.start = append(log.start, t0)
					if v := resp.Header.Get(router.FailoverHeader); v != "" {
						if n, err := strconv.ParseInt(v, 10, 64); err == nil {
							log.failovers += n
						}
					}
					if resp.Header.Get(router.HedgeHeader) == "win" {
						log.hedgeWins++
					}
				}
			}
		}(c)
	}

	// The heap reading at the end of warm-up is taken while the clients
	// run; it stops the world for microseconds, once.
	var ms runtime.MemStats
	select {
	case <-time.After(time.Until(warmEnd)):
	case <-ctx.Done():
	}
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	wg.Wait()
	elapsed := time.Since(warmEnd)
	runtime.ReadMemStats(&ms)
	tr.end(root)

	w := &window{elapsed: elapsed.Seconds(), allocKB: float64(ms.TotalAlloc-before) / 1024}
	for _, log := range logs {
		if log.err != nil {
			return nil, log.err
		}
		w.attempted += log.attempted
		w.failed += log.failed
		w.failovers += log.failovers
		w.hedgeWins += log.hedgeWins
		for i, c := range log.class {
			w.durs[c] = append(w.durs[c], log.dur[i])
			w.all = append(w.all, log.dur[i])
			if tr != nil {
				tr.add("request."+classNames[c], root, log.start[i], time.Duration(log.dur[i]))
			}
		}
		for _, s := range log.checks {
			if s.got != fx.ref.get(s.path) {
				w.failed++
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slices.Sort(w.all)
	return w, nil
}

// scrapeGauges reads the named unlabelled series from a /metrics page.
func scrapeGauges(ctx context.Context, base string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s/metrics: status %d", base, resp.StatusCode)
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, want := range names {
			if name == want {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("scraping %s: %w", name, err)
				}
				out[name] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, want := range names {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("series %s missing from %s/metrics", want, base)
		}
	}
	return out, nil
}
