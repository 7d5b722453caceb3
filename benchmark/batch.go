package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/collector"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/mrt"
	"parallellives/internal/pipeline"
	"parallellives/internal/registry"
	"parallellives/internal/restore"
	"parallellives/internal/stream"
	"parallellives/internal/worldsim"
)

func worldConfig(seed int64, scale float64, start, end string) (worldsim.Config, error) {
	cfg := worldsim.DefaultConfig()
	cfg.Seed, cfg.Scale = seed, scale
	var err error
	if cfg.Start, err = dates.Parse(start); err != nil {
		return cfg, err
	}
	if cfg.End, err = dates.Parse(end); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// pipelineOptions is pipeline.Run as the batch workloads drive it: the
// MRT codec and the delegation-file text round trip both on.
func pipelineOptions(cfg worldsim.Config, workers int) pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.World = cfg
	opts.Wire = true
	opts.TextFiles = true
	opts.Workers = workers
	return opts
}

// analysis is what one pass computes, plus the counts taken at the
// layer boundaries.
type analysis struct {
	admin []core.AdminLifetime
	ops   []core.OpLifetime
	tax   core.TaxonomyCounts

	lives, files, runs, days int
	stats                    bgpscan.Stats
	mrtBytes                 int64
}

// digest identifies a pass's output: a hash over the administrative
// lifetimes, the operational lifetimes and the taxonomy counts.
func (a *analysis) digest() uint64 {
	return digestOf(a.admin, a.ops, a.tax)
}

func digestOf(admin []core.AdminLifetime, ops []core.OpLifetime, tax core.TaxonomyCounts) uint64 {
	h := fnv.New64a()
	for _, l := range admin {
		fmt.Fprintf(h, "%v\n", l)
	}
	for _, l := range ops {
		fmt.Fprintf(h, "%v\n", l)
	}
	fmt.Fprintf(h, "%v\n", tax)
	return h.Sum64()
}

func datasetDigest(ds *pipeline.Dataset) uint64 {
	return digestOf(ds.Admin.Lifetimes, ds.Ops.Lifetimes, ds.Joint.Taxonomy())
}

// timedSource records a span around every Next of a registry.Source, so
// restoration's self time excludes the time its sources take.
type timedSource struct {
	registry.Source
	tr     *tracer
	name   string
	parent spanID
}

func (s *timedSource) Next() (registry.Snapshot, bool) {
	sp := s.tr.begin(s.name, s.parent, 0)
	snap, ok := s.Source.Next()
	s.tr.end(sp)
	return snap, ok
}

// dayFeed yields the window's collector days in order, each as the
// archives the scanner is fed (RIB dumps, then update dumps).
type dayFeed interface {
	next(ctx context.Context, tr *tracer, parent spanID) (day dates.Day, archives [][]byte, ok bool, err error)
}

// dirFeed reads days that set-up materialised, through stream.DirSource.
type dirFeed struct {
	src   *stream.DirSource
	after dates.Day
	end   dates.Day
}

func (f *dirFeed) next(ctx context.Context, tr *tracer, parent spanID) (dates.Day, [][]byte, bool, error) {
	if f.after >= f.end {
		return 0, nil, false, nil
	}
	sp := tr.begin("stream.dirsource", parent, 0)
	d, err := f.src.Next(ctx, f.after)
	tr.end(sp)
	if err != nil {
		return 0, nil, false, err
	}
	f.after = d.Day
	archives := make([][]byte, len(d.Archives))
	for i, a := range d.Archives {
		archives[i] = a.Data
	}
	return d.Day, archives, true, nil
}

// simFeed renders and encodes days from the simulated collectors.
type simFeed struct {
	it *collector.Iter
}

func (f *simFeed) next(_ context.Context, tr *tracer, parent spanID) (dates.Day, [][]byte, bool, error) {
	sp := tr.begin("collector.render", parent, 0)
	ok := f.it.Next()
	tr.end(sp)
	if !ok {
		return 0, nil, false, nil
	}
	sp = tr.begin("collector.mrt_encode", parent, 0)
	ribs, updates, err := f.it.MRT()
	tr.end(sp)
	if err != nil {
		return 0, nil, false, fmt.Errorf("encoding day %s: %w", f.it.Day(), err)
	}
	return f.it.Day(), append(ribs, updates...), true, nil
}

// analyse is the paper's Figure 1, run sequentially with a span around
// each call into a layer: restore the delegation sources, segment the
// administrative lifetimes, scan the day feed, segment the operational
// lifetimes, join. sourceName names the spans of the sources' Next.
func analyse(ctx context.Context, tr *tracer, root spanID, sources []registry.Source, sourceName string,
	erx []registry.ERXEntry, feed dayFeed) (*analysis, error) {
	out := &analysis{}

	sp := tr.begin("restore", root, 0)
	if tr != nil {
		for i, s := range sources {
			sources[i] = &timedSource{Source: s, tr: tr, name: sourceName, parent: sp}
		}
	}
	restored, err := restore.RestoreParallelContext(ctx, sources, erx, restore.Options{}, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.files, out.runs = restored.Report.FilesScanned, len(restored.Runs)

	sp = tr.begin("core.segment_admin", root, 0)
	lifetimes, _, err := core.BuildAdminLifetimesParallelContext(ctx, restored, 1)
	var admin *core.AdminIndex
	if err == nil {
		admin = core.NewAdminIndex(lifetimes)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.admin = admin.Lifetimes

	s := bgpscan.NewScannerWithVisibility(bgpscan.MinPeerVisibility)
	for {
		day, archives, ok, err := feed.next(ctx, tr, root)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out.days++
		sp = tr.begin("bgpscan.day", root, 0)
		err = s.BeginDay(day)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for _, a := range archives {
			out.mrtBytes += int64(len(a))
			sp = tr.begin("bgpscan.observe", root, 0)
			err = s.ObserveMRT(a)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("scanning day %s: %w", day, err)
			}
		}
		sp = tr.begin("bgpscan.day", root, 0)
		err = s.EndDay()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin("bgpscan.finish", root, 0)
	act := s.Finish()
	tr.end(sp)
	out.stats = act.Stats

	sp = tr.begin("core.segment_op", root, 0)
	ops, err := core.BuildOpLifetimesParallelContext(ctx, act, core.DefaultInactivityTimeout, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.ops = ops.Lifetimes

	sp = tr.begin("core.join", root, 0)
	joint, err := core.AnalyzeParallelContext(ctx, admin, ops, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.tax = joint.Taxonomy()
	return out, nil
}

// decodeSweep walks a day feed through the MRT codec alone — framing
// and record decode, as bgpscan.ObserveMRT does them, with no scanning —
// and returns the seconds spent decoding. bgpscan.self_s is the scan's
// observe time minus this.
func decodeSweep(ctx context.Context, feed dayFeed) (float64, error) {
	var (
		total time.Duration
		tbl   mrt.PeerIndexTable
		rib   mrt.RIBRecord
		msg   mrt.BGP4MPMessage
	)
	for {
		_, archives, ok, err := feed.next(ctx, nil, noSpan)
		if err != nil {
			return 0, err
		}
		if !ok {
			return total.Seconds(), nil
		}
		t0 := time.Now()
		for _, a := range archives {
			r := mrt.NewReader(bytes.NewReader(a))
			for {
				h, body, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return 0, fmt.Errorf("decode sweep: %w", err)
				}
				switch h.Type {
				case mrt.TypeTableDumpV2:
					switch h.Subtype {
					case mrt.SubtypePeerIndexTable:
						err = mrt.DecodePeerIndexTable(&tbl, body)
					case mrt.SubtypeRIBIPv4Unicast, mrt.SubtypeRIBIPv6Unicast:
						err = mrt.DecodeRIBRecord(&rib, body, h.Subtype == mrt.SubtypeRIBIPv6Unicast)
					}
				case mrt.TypeBGP4MP, mrt.TypeBGP4MPET:
					if h.Subtype == mrt.SubtypeBGP4MPMessage || h.Subtype == mrt.SubtypeBGP4MPMessageAS4 {
						err = mrt.DecodeBGP4MPMessage(&msg, body, h.Subtype)
					}
				}
				if err != nil {
					return 0, fmt.Errorf("decode sweep: %w", err)
				}
			}
		}
		total += time.Since(t0)
	}
}

// batchFixture is what set-up leaves for the passes of a batch workload.
type batchFixture struct {
	cfg   worldsim.Config
	ref   uint64 // digest every pass must reproduce
	lives int    // ground-truth lives in the world

	// archive_analyse only: the materialised archive.
	delegDir, mrtDir string
	erx              []registry.ERXEntry
}

// setupArchive materialises the world to disk — delegation files in the
// RIR FTP layout and one MRT file per collector, kind and day — and
// computes the reference digest with a fused pipeline.Run over the same
// world.
func setupArchive(ctx context.Context, tr *tracer, root spanID, cfg worldsim.Config, dir string) (*batchFixture, error) {
	fx := &batchFixture{cfg: cfg, delegDir: filepath.Join(dir, "delegation"), mrtDir: filepath.Join(dir, "mrt")}

	sp := tr.begin("worldsim.generate", root, 0)
	w := worldsim.Generate(cfg)
	tr.end(sp)
	fx.lives = len(w.Lives)
	sp = tr.begin("registry.build", root, 0)
	archive := registry.Build(w)
	tr.end(sp)
	fx.erx = archive.ERXReference()

	sp = tr.begin("registry.export", root, 0)
	err := archive.ExportDir(fx.delegDir, cfg.Start, cfg.End)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("exporting delegation files: %w", err)
	}

	dw, err := stream.NewDirWriter(fx.mrtDir)
	if err != nil {
		return nil, err
	}
	feed := &simFeed{it: collector.New(w).IterRange(cfg.Start, cfg.End)}
	for {
		day, archives, ok, err := feed.next(ctx, tr, root)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n := len(archives) / 2
		sp = tr.begin("stream.write", root, 0)
		err = dw.WriteDay(stream.DayFromMRT(day, archives[:n], archives[n:]))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	sp = tr.begin("pipeline.reference", root, 0)
	ds, err := pipeline.RunContext(ctx, pipelineOptions(cfg, 0))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	fx.ref = datasetDigest(ds)
	return fx, nil
}

// archivePass is one sequential analysis of the materialised archive.
func (fx *batchFixture) archivePass(ctx context.Context, tr *tracer, pass int) (*analysis, error) {
	root := tr.begin("pass", noSpan, pass)
	defer tr.end(root)

	sp := tr.begin("registry.dirsource", root, 0)
	sources := make([]registry.Source, 0, asn.NumRIRs)
	for _, r := range asn.All() {
		if registry.FirstRegular(r) > fx.cfg.End {
			continue // the registry published nothing yet: no files, no source
		}
		src, err := registry.NewDirSource(fx.delegDir, r)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		sources = append(sources, src)
	}
	tr.end(sp)

	return analyse(ctx, tr, root, sources, "registry.dirsource", fx.erx, fx.newDirFeed())
}

// newDirFeed reads the materialised MRT days from the first to the last.
func (fx *batchFixture) newDirFeed() *dirFeed {
	return &dirFeed{src: stream.NewDirSource(fx.mrtDir, stream.DirOptions{}), after: fx.cfg.Start.AddDays(-1), end: fx.cfg.End}
}

// setupSim computes sim_run's reference with pipeline.Run at Workers=1,
// so the timed parallel passes are checked against the sequential path.
func setupSim(ctx context.Context, tr *tracer, root spanID, cfg worldsim.Config) (*batchFixture, error) {
	sp := tr.begin("pipeline.run_workers1", root, 0)
	ds, err := pipeline.RunContext(ctx, pipelineOptions(cfg, 1))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return &batchFixture{cfg: cfg, ref: datasetDigest(ds)}, nil
}

// simPass is the timed operation of sim_run: pipeline.Run on all cores.
func (fx *batchFixture) simPass(ctx context.Context) (uint64, error) {
	ds, err := pipeline.RunContext(ctx, pipelineOptions(fx.cfg, 0))
	if err != nil {
		return 0, err
	}
	return datasetDigest(ds), nil
}

// simLayeredPass does what pipeline.Run does at Workers=1, but as the
// harness's own sequence of calls into each layer, so that every layer
// has a span. pipeline.wiring_s is what pipeline.Run costs beyond it.
func (fx *batchFixture) simLayeredPass(ctx context.Context, tr *tracer, pass int) (*analysis, error) {
	root := tr.begin("pass", noSpan, pass)
	defer tr.end(root)

	sp := tr.begin("worldsim.generate", root, 0)
	w := worldsim.Generate(fx.cfg)
	tr.end(sp)
	sp = tr.begin("registry.build", root, 0)
	archive := registry.Build(w)
	tr.end(sp)

	sources := make([]registry.Source, 0, asn.NumRIRs)
	for _, r := range asn.All() {
		sources = append(sources, archive.TextSource(r))
	}
	feed := &simFeed{it: collector.New(w).IterRange(fx.cfg.Start, fx.cfg.End)}
	a, err := analyse(ctx, tr, root, sources, "registry.textsource", archive.ERXReference(), feed)
	if err != nil {
		return nil, err
	}
	a.lives = len(w.Lives)
	return a, nil
}

// newSimFeed renders the window's days from a freshly generated world.
func (fx *batchFixture) newSimFeed() *simFeed {
	return &simFeed{it: collector.New(worldsim.Generate(fx.cfg)).IterRange(fx.cfg.Start, fx.cfg.End)}
}

// timedPass runs fn between two heap readings and returns its wall time
// and the bytes it allocated. The collection beforehand starts every
// pass from the same heap, as a fresh process would.
func timedPass(fn func() error) (seconds float64, allocBytes uint64, err error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	t0 := time.Now()
	err = fn()
	seconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms)
	return seconds, ms.TotalAlloc - before, err
}
