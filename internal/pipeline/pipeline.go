// Package pipeline wires the full Figure 1 flow together: world
// simulation → delegation archive (+restoration) on the administrative
// side, collector rendering (+scanning) on the operational side, then
// lifetime construction and the joint analysis. Commands, tests and
// benchmarks all drive the system through this package, and it is the
// one package below the commands that knows the data is simulated: a
// Dataset carries its window and an optional ground truth, not a world.
package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/collector"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/parallel"
	"parallellives/internal/registry"
	"parallellives/internal/restore"
	"parallellives/internal/worldsim"
)

// Options selects the data fidelity and thresholds of a run.
type Options struct {
	// World configures the simulated ground truth.
	World worldsim.Config
	// Wire routes all BGP data through binary MRT encode/decode; off, the
	// scanner consumes the collector's observations directly. Both paths
	// give the same lifetimes and taxonomy (pinned by tests), but not the
	// same scan counts: only the wire path has MRT records, and the two
	// count routes and drops over different inputs.
	Wire bool
	// Pinned by benchmark/README.md; ignored: delegation data always
	// takes the file-text round trip.
	TextFiles bool
	// Timeout is the operational inactivity timeout (0 = the paper's 30).
	Timeout int
	// Visibility is the minimum distinct-peer threshold (0 = the
	// paper's 2).
	Visibility int

	// FaultPolicy selects FailFast (zero value, the seed behaviour) or
	// Degrade handling of damaged inputs; see the policy docs.
	FaultPolicy faults.FaultPolicy
	// Budget bounds how much damage a Degrade run absorbs before failing
	// anyway (zero fields take defaults).
	Budget faults.ErrorBudget
	// Inject, when non-nil, plants the plan's deterministic faults into
	// the run's sources and MRT streams (chaos mode). MRT faults need
	// Wire; delegation faults apply either way.
	Inject *faults.Plan

	// Obs, when non-nil, instruments the run: each stage becomes a span
	// on Obs.Tracer (the tree behind -stage-report and /v1/stages), and
	// record/quarantine counters are published to Obs.Registry per day,
	// so progress reporters and /metrics scrapes observe the run live.
	// Nil costs nothing on the hot paths.
	Obs *obs.Obs

	// Workers bounds the goroutines of each parallel stage: the scan
	// shards the day range, restoration reads the five RIR sources, and
	// above 1 Run restores and segments the admin lens beside the scan.
	// The rest is sequential. 0 means runtime.GOMAXPROCS(0); 1 runs fully
	// sequentially. The output is bit-for-bit identical for every value —
	// parallelism here is a wall-clock knob, never a results knob (pinned
	// by the equivalence property test).
	Workers int
}

// DefaultOptions runs the paper's configuration at the default scale.
func DefaultOptions() Options {
	return Options{
		World:      worldsim.DefaultConfig(),
		Wire:       false,
		Timeout:    core.DefaultInactivityTimeout,
		Visibility: bgpscan.MinPeerVisibility,
	}
}

// WithDefaults returns o with a zero Timeout or Visibility resolved to
// the paper's value — the form Base and Dataset carry and a tailer's
// checkpoint fingerprint hashes.
func (o Options) WithDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = core.DefaultInactivityTimeout
	}
	if o.Visibility == 0 {
		o.Visibility = bgpscan.MinPeerVisibility
	}
	return o
}

// Dataset is the fully built dual-lens dataset.
type Dataset struct {
	Options Options
	// FileCounts is each registry's number of delegation file days, from
	// its first file to the window's end (Table 1).
	FileCounts [asn.NumRIRs]int
	// Truth supplies the ground-truth customer cones that §6.2 reads; nil
	// means the dataset has no ground truth.
	Truth      core.ConeProvider
	Restored   *restore.Result
	Activity   *bgpscan.Activity
	Admin      *core.AdminIndex
	AdminStats core.AdminStats
	Ops        *core.OpIndex
	Joint      *core.Joint
	Health     *faults.Health
	// Trace is the run's root span when Options.Obs was set (nil
	// otherwise): one child span per stage, carrying the record-flow
	// attributes the -stage-report table renders.
	Trace *obs.Span

	start, end dates.Day
}

// Run executes the full pipeline.
func Run(opts Options) (*Dataset, error) {
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cooperative cancellation: a cancelled ctx
// aborts the build promptly — at every stage boundary, between
// restoration sources, and day-by-day inside the scan shards — returning
// ctx's error instead of running the window to completion. Output is
// unaffected for a ctx that never cancels.
func RunContext(ctx context.Context, opts Options) (*Dataset, error) {
	var m *runMetrics
	if opts.Obs != nil {
		ctx = obs.WithTracer(ctx, opts.Obs.Tracer)
		m = newRunMetrics(opts.Obs.Registry)
	}
	ctx, root := obs.StartSpan(ctx, "pipeline.run")

	base, err := buildWorld(ctx, opts)
	if err != nil {
		return nil, err
	}
	// The two lenses share nothing until the join, so above one worker
	// the admin lens runs beside the scan. It keeps the caller's ctx: a
	// scan error never cancels it, and its own error (index 0) still wins
	// over the scan's, as in the sequential order.
	var act *bgpscan.Activity
	var op OpAccount
	err = parallel.ForEach(ctx, 2, base.Workers, func(sctx context.Context, i int) (err error) {
		if i == 0 {
			return base.buildAdmin(ctx)
		}
		act, op, err = scan(sctx, base, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.collect()

	ds, err := base.Complete(ctx, act, op)
	if err != nil {
		return nil, err
	}
	ds.Trace = root
	root.End()
	m.observeStages(root)
	m.collect()
	return ds, nil
}

// Base is the window-static front half of a run: the simulated world
// and its delegation archive (both private), the restored administrative
// view and its lifetimes — everything that depends only on Options, not
// on how much of the BGP window has been scanned yet. A batch run builds it once
// and scans the whole window; the streaming tailer builds it once per
// process start and replays the operational side one day at a time,
// calling Complete whenever it wants a full Dataset of the days
// ingested so far.
type Base struct {
	// Options is the run configuration with zero Timeout/Visibility
	// resolved to their defaults (the form Dataset.Options carries).
	Options Options
	// Workers is the resolved scan and restoration parallelism
	// (Options.Workers with 0 mapped to GOMAXPROCS).
	Workers    int
	Restored   *restore.Result
	Admin      *core.AdminIndex
	AdminStats core.AdminStats
	// Injector is the run's fault injector (nil without Options.Inject).
	// Its delegation-side tallies are already accumulated into the base
	// health; MRT-side tallies accrue as archives are mangled.
	Injector *faults.Injector

	world      *worldsim.World
	archive    *registry.Archive
	fileCounts [asn.NumRIRs]int
	// health holds the delegation/coverage half of the final Health;
	// Complete copies it and fills in the scan-dependent fields.
	health faults.Health
}

// OpAccount carries the scan-side tallies Complete needs to finish the
// Health report: how many days and archives went through the scanner,
// and how many MRT-side faults were injected into those archives. It is
// a plain sum of ScanDay's per-day accounts; the streaming tailer
// persists it in its checkpoint, so after a crash-and-resume every
// committed day is accounted exactly once.
type OpAccount struct {
	Days     int
	Archives int64
	// InjectedTruncatedRecords/InjectedTailChops are the MRT-side fault
	// counts attributable to the accounted days. Ignored when the run
	// has no injector.
	InjectedTruncatedRecords int64
	InjectedTailChops        int64
}

// Add accumulates another account into a.
func (a *OpAccount) Add(o OpAccount) {
	a.Days += o.Days
	a.Archives += o.Archives
	a.InjectedTruncatedRecords += o.InjectedTruncatedRecords
	a.InjectedTailChops += o.InjectedTailChops
}

// BuildBase runs the administrative (window-static) half of the
// pipeline: world simulation, delegation archive, restoration and admin
// lifetime segmentation, with the same spans and fault plumbing as a
// full run. The returned Base is ready for the operational side —
// either the batch scan or the tailer's day-append loop.
func BuildBase(ctx context.Context, opts Options) (*Base, error) {
	b, err := buildWorld(ctx, opts)
	if err == nil {
		err = b.buildAdmin(ctx)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// buildWorld starts a Base: the simulated world, its delegation
// archive, the run's fault injector and the health report's seed.
func buildWorld(ctx context.Context, opts Options) (*Base, error) {
	opts = opts.WithDefaults()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &Base{Options: opts, Workers: workers}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, spSim := obs.StartSpan(ctx, "worldsim")
	b.world = worldsim.Generate(opts.World)
	b.archive = registry.Build(b.world)
	for _, r := range asn.All() {
		b.fileCounts[r] = b.archive.FileCount(r)
	}
	spSim.SetAttr(obs.AttrOut, int64(len(b.world.Lives)))
	spSim.SetAttr("orgs", int64(len(b.world.Orgs)))
	spSim.End()

	if opts.Inject != nil {
		b.Injector = faults.NewInjector(*opts.Inject)
	}
	b.health = faults.Health{Policy: opts.FaultPolicy}
	return b, nil
}

// buildAdmin restores the archive and builds the admin lifetimes. It
// writes only fields the scan never reads, so it may run beside it.
func (b *Base) buildAdmin(ctx context.Context) error {
	_, spRestore := obs.StartSpan(ctx, "restore")
	sources := make([]delegation.Source, 0, asn.NumRIRs)
	var retriers []*faults.Retrier
	for _, r := range asn.All() {
		src := b.archive.TextSource(r)
		if b.Injector != nil {
			// Chaos mode: the source becomes fallible; a Retrier recovers
			// transient errors with bounded deterministic backoff and
			// abandons days that keep failing.
			ret := faults.NewRetrier(b.Injector.WrapSource(src), faults.RetryPolicy{})
			retriers = append(retriers, ret)
			src = ret
		}
		sources = append(sources, src)
	}
	restored, err := restore.RestoreParallelContext(ctx, sources, b.archive.ERXReference(), restore.Options{}, b.Workers)
	if err != nil {
		return err
	}
	b.Restored = restored
	for _, ret := range retriers {
		st := ret.Stats()
		b.health.Delegation.Retries += st.Retries
		b.health.Delegation.AbandonedReads += st.Abandoned
		b.health.Delegation.RetryBackoff += st.Backoff
	}
	b.health.Delegation.FilesScanned = b.Restored.Report.FilesScanned
	b.health.Delegation.MissingFileDays = b.Restored.Report.MissingFileDays
	b.health.Delegation.CorruptFileDays = b.Restored.Report.CorruptFileDays
	b.health.Coverage = b.Restored.Coverage
	spRestore.SetAttr(obs.AttrIn, int64(b.Restored.Report.FilesScanned))
	spRestore.SetAttr(obs.AttrOut, int64(len(b.Restored.Runs)))
	spRestore.SetAttr(obs.AttrDrops, int64(b.Restored.Report.MistakenRecordsDropped))
	spRestore.SetAttr("missing_file_days", int64(b.Restored.Report.MissingFileDays))
	spRestore.SetAttr("corrupt_file_days", int64(b.Restored.Report.CorruptFileDays))
	spRestore.SetAttr("retries", b.health.Delegation.Retries)
	spRestore.End()
	if b.Options.FaultPolicy == faults.FailFast && b.health.Delegation.AbandonedReads > 0 {
		return fmt.Errorf("pipeline: %d delegation day reads abandoned after retries (policy failfast)",
			b.health.Delegation.AbandonedReads)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, spAdmin := obs.StartSpan(ctx, "segment.admin")
	lifetimes, stats := core.BuildAdminLifetimes(b.Restored)
	b.Admin = core.NewAdminIndex(lifetimes)
	b.AdminStats = stats
	spAdmin.SetAttr(obs.AttrIn, int64(len(b.Restored.Runs)))
	spAdmin.SetAttr(obs.AttrOut, int64(len(b.Admin.Lifetimes)))
	spAdmin.SetAttr("asns", int64(stats.ASNs))
	spAdmin.End()
	return nil
}

// Complete assembles the full Dataset from the base and a finalized
// activity: operational lifetime segmentation, the Health report
// (delegation half from the base, scan half from act and op) and the
// joint analysis. It does not consume the base — the streaming tailer
// calls it repeatedly over a growing activity, once per published
// snapshot, and the produced Dataset for the full window is bit-for-bit
// what a batch Run over the same Options yields.
func (b *Base) Complete(ctx context.Context, act *bgpscan.Activity, op OpAccount) (*Dataset, error) {
	start, end := b.Window()
	ds := &Dataset{
		Options:    b.Options,
		FileCounts: b.fileCounts,
		Truth:      &cones{world: b.world},
		Restored:   b.Restored,
		Admin:      b.Admin,
		AdminStats: b.AdminStats,
		Activity:   act,
		start:      start,
		end:        end,
	}
	health := b.health // copy: the base stays reusable
	health.DaysProcessed = op.Days
	health.MRT.Archives = op.Archives

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, spOp := obs.StartSpan(ctx, "segment.op")
	ds.Ops = core.BuildOpLifetimes(act, b.Options.Timeout)
	spOp.SetAttr(obs.AttrIn, int64(len(act.ASNs)))
	spOp.SetAttr(obs.AttrOut, int64(len(ds.Ops.Lifetimes)))
	spOp.End()
	health.MRT.Records = act.Stats.RIBRecords + act.Stats.UpdateMessages
	health.MRT.QuarantinedTruncated = act.Stats.QuarantinedTruncated
	health.MRT.QuarantinedTails = act.Stats.QuarantinedTails
	health.MRT.Malformed = act.Stats.DropMalformed
	if b.Injector != nil {
		// The delegation-side classes come from the live injector (they
		// are re-accumulated deterministically by every BuildBase); the
		// MRT-side classes come from the account, which the caller keeps
		// per committed day.
		rep := b.Injector.Report()
		rep.TruncatedRecords = op.InjectedTruncatedRecords
		rep.TailChops = op.InjectedTailChops
		health.Injected = &rep
	}
	ds.Health = &health
	if b.Options.FaultPolicy == faults.Degrade {
		if err := health.CheckBudget(b.Options.Budget); err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, spJoin := obs.StartSpan(ctx, "join")
	ds.Joint = core.Analyze(ds.Admin, ds.Ops)
	tax := ds.Joint.Taxonomy()
	spJoin.SetAttr(obs.AttrIn, int64(len(ds.Admin.Lifetimes)+len(ds.Ops.Lifetimes)))
	spJoin.SetAttr(obs.AttrOut, int64(tax.AdminComplete+tax.AdminPartial+tax.AdminUnused))
	spJoin.SetAttr("admin_complete", int64(tax.AdminComplete))
	spJoin.SetAttr("op_outside", int64(tax.OpOutside))
	spJoin.End()
	return ds, nil
}

// scan runs the operational side of the pipeline, sharding the day
// range across workers scanners, each a loop of ScanDay over its own
// collector source. Each day is self-contained (per-day peer bitmaps),
// the collector renders any day identically from any iterator position,
// and chaos-mode injection salts are identity-derived (mrtSalt), so
// per-shard partials and accounts merge into bit-for-bit the sequential
// ones. Day-granular spans would explode the trace tree, so each shard
// gets one span (bgpscan.shard[i]) and publishes per-day registry deltas
// through its shardMetrics view; m may be nil (observability off).
func scan(ctx context.Context, b *Base, m *runMetrics) (*bgpscan.Activity, OpAccount, error) {
	ctx, spScan := obs.StartSpan(ctx, "bgpscan")
	inf := collector.New(b.world)
	start, end := b.Window()
	shards := parallel.Shards(end.Sub(start)+1, b.Workers)

	// Per-shard accounts, reduced in shard order after the scan so the
	// Health accounting is schedule-independent.
	parts := make([]*bgpscan.Activity, len(shards))
	accounts := make([]OpAccount, len(shards))
	tables := make([]bgpscan.TableStats, len(shards))

	err := parallel.ForEach(ctx, len(shards), b.Workers, func(ctx context.Context, si int) error {
		r := shards[si]
		_, sp := obs.StartSpanf(ctx, "bgpscan.shard[%d]", si)
		defer sp.End()
		s := b.NewScanner()
		sm := m.shard()
		acc := &accounts[si]
		last := start.AddDays(r.Lo - 1)
		src := newCollectorSource(inf, last.AddDays(1), start.AddDays(r.Hi-1), b.Options.Wire)
		for {
			d, err := src.Next(ctx, last)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err // cancelled mid-shard: abandon the remaining days
			}
			op, err := b.ScanDay(s, d)
			if err != nil {
				return err
			}
			acc.Add(op)
			sm.endOfDay(op.Archives, s.Stats())
			last = d.Day
		}
		part := s.TakePartial()
		parts[si], tables[si] = part, s.TableStats()
		setTableAttrs(sp, tables[si])
		sp.SetAttr("days", int64(acc.Days))
		sp.SetAttr(obs.AttrIn, acc.Archives)
		sp.SetAttr(obs.AttrOut, part.Stats.Routes)
		sp.SetAttr(obs.AttrDrops, part.Stats.DropPrefixLen+part.Stats.DropLoop+
			part.Stats.DropMalformed+part.Stats.DropLowVis)
		sp.SetAttr(obs.AttrQuarantined, part.Stats.QuarantinedTruncated+part.Stats.QuarantinedTails)
		return nil
	})
	if err != nil {
		return nil, OpAccount{}, err
	}
	var op OpAccount
	var table bgpscan.TableStats
	for i, a := range accounts {
		op.Add(a)
		table.Decoded += tables[i].Decoded
		table.Carried += tables[i].Carried
		table.Compactions += tables[i].Compactions
	}
	setTableAttrs(spScan, table)
	act := bgpscan.MergeActivities(parts...)
	spScan.SetAttr("days", int64(op.Days))
	spScan.SetAttr(obs.AttrIn, op.Archives)
	spScan.SetAttr(obs.AttrOut, act.Stats.Routes)
	spScan.SetAttr("records", act.Stats.RIBRecords+act.Stats.UpdateMessages)
	spScan.SetAttr(obs.AttrDrops, act.Stats.DropPrefixLen+act.Stats.DropLoop+
		act.Stats.DropMalformed+act.Stats.DropLowVis)
	spScan.SetAttr(obs.AttrQuarantined, act.Stats.QuarantinedTruncated+act.Stats.QuarantinedTails)
	spScan.End()
	return act, op, nil
}

// setTableAttrs reports what a scan's attribute table did on its span.
func setTableAttrs(sp *obs.Span, t bgpscan.TableStats) {
	sp.SetAttr("attr_decoded", t.Decoded)
	sp.SetAttr("attr_carried", t.Carried)
	sp.SetAttr("attr_compactions", t.Compactions)
}

// NewScanner returns a scanner set up from the base's options: their
// visibility threshold, and quarantine of damaged records under Degrade.
func (b *Base) NewScanner() *bgpscan.Scanner {
	s := bgpscan.NewScannerWithVisibility(b.Options.Visibility)
	s.Quarantine = b.Options.FaultPolicy == faults.Degrade
	return s
}

// ScanDay feeds one day to s — the one day step the batch scan shards
// and the streaming tailer share — and returns that day's account. With
// an injector each archive is mangled first, salted with its identity,
// so a chaos-mode tail re-creates the batch scan's faults bit-for-bit,
// and the faults injected into these archives are what the account
// credits: a day re-scanned after a crash is counted by whoever commits
// it, never twice.
func (b *Base) ScanDay(s *bgpscan.Scanner, d *Day) (OpAccount, error) {
	if err := s.BeginDay(d.Day); err != nil {
		return OpAccount{}, err
	}
	op := OpAccount{Days: 1, Archives: int64(len(d.Archives))}
	for _, ar := range d.Archives {
		data := ar.Data
		if b.Injector != nil {
			var inj faults.Report
			data, inj = b.Injector.MangleMRT(mrtSalt(d.Day, ar), data)
			op.InjectedTruncatedRecords += inj.TruncatedRecords
			op.InjectedTailChops += inj.TailChops
		}
		if err := s.ObserveMRT(data); err != nil {
			return op, fmt.Errorf("pipeline: scanning day %s collector %s %s dump: %w", d.Day, ar.Collector, ar.Kind, err)
		}
	}
	for _, o := range d.direct {
		s.ObserveRoutes(o.Prefixes, o.Path)
	}
	return op, s.EndDay()
}

// mrtSalt derives the stable per-archive injection salt from the
// archive's identity (day, collector index, kind), so reruns mangle
// exactly the same bytes.
func mrtSalt(d dates.Day, ar Archive) uint64 {
	return uint64(uint32(d))<<16 | uint64(ar.CollectorIdx)<<1 | uint64(ar.Kind)
}

// cones exposes the world's customer-cone ground truth as the ASRank
// substitute consumed by the §6.2 analysis. The table is built on the
// first lookup, so a run that never asks pays nothing for it.
type cones struct {
	world *worldsim.World
	once  sync.Once
	sizes map[asn.ASN]int
}

// ConeSize implements core.ConeProvider.
func (c *cones) ConeSize(a asn.ASN) (int, bool) {
	c.once.Do(func() {
		c.sizes = make(map[asn.ASN]int)
		for _, l := range c.world.Lives {
			c.sizes[l.ASN] = c.world.Orgs[l.OrgID].ConeSize
		}
	})
	n, ok := c.sizes[a]
	return n, ok
}

// Window returns the observation window the base covers.
func (b *Base) Window() (start, end dates.Day) {
	return b.world.Config.Start, b.world.Config.End
}

// Window returns the observation window the dataset was built over.
func (ds *Dataset) Window() (start, end dates.Day) {
	return ds.start, ds.end
}

// AliveSeries computes the daily alive counts over the full observation
// window — the series a snapshot stores so a served dataset can answer
// /v1/rir/{r}/series without the activity data the computation needs.
func (ds *Dataset) AliveSeries() *core.AliveSeries {
	return ds.Joint.Alive(ds.start, ds.end)
}

// Snapshot builds the serializable view of the dataset. The per-ASN
// lives are ordered exactly as the dataset's indexes hold them (ASN,
// then span start), so Snapshot is deterministic for a deterministic run.
func (ds *Dataset) Snapshot() *lifestore.Snapshot {
	start, end := ds.Window()
	snap := &lifestore.Snapshot{
		Meta: lifestore.Meta{
			FormatVersion:     lifestore.FormatVersion,
			Start:             start,
			End:               end,
			Timeout:           ds.Options.Timeout,
			Visibility:        ds.Options.Visibility,
			Policy:            ds.Options.FaultPolicy,
			Wire:              ds.Options.Wire,
			Scale:             ds.Options.World.Scale,
			Seed:              ds.Options.World.Seed,
			Collectors:        ds.Options.World.Collectors,
			PeersPerCollector: ds.Options.World.PeersPerCollector,
			Chaos:             ds.Options.Inject != nil,
			AdminLives:        len(ds.Admin.Lifetimes),
			OpLives:           len(ds.Ops.Lifetimes),
		},
		Health:   *ds.Health,
		Taxonomy: ds.Joint.Taxonomy(),
		Series:   ds.AliveSeries(),
	}

	byASN := make(map[asn.ASN]*lifestore.ASNLives)
	var order []asn.ASN
	get := func(a asn.ASN) *lifestore.ASNLives {
		if l, ok := byASN[a]; ok {
			return l
		}
		l := &lifestore.ASNLives{ASN: a}
		byASN[a] = l
		order = append(order, a)
		return l
	}
	for i, l := range ds.Admin.Lifetimes {
		get(l.ASN).Admin = append(get(l.ASN).Admin, lifestore.AdminLife{
			RIR:         l.RIR,
			CC:          l.CC,
			OpaqueID:    l.OpaqueID,
			RegDate:     l.RegDate,
			Span:        l.Span,
			Open:        l.Open,
			Transferred: l.Transferred,
			Pieces:      l.Pieces,
			Category:    ds.Joint.AdminCat[i],
		})
	}
	for i, l := range ds.Ops.Lifetimes {
		get(l.ASN).Op = append(get(l.ASN).Op, lifestore.OpLife{
			Span:     l.Span,
			Category: ds.Joint.OpCat[i],
		})
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	snap.Lives = make([]lifestore.ASNLives, len(order))
	for i, a := range order {
		snap.Lives[i] = *byASN[a]
	}
	snap.Meta.ASNCount = len(snap.Lives)
	return snap
}

// adminRecord matches the paper's Listing 1 administrative dataset.
type adminRecord struct {
	ASN       asn.ASN `json:"ASN"`
	RegDate   string  `json:"regDate"`
	StartDate string  `json:"startdate"`
	EndDate   string  `json:"enddate"`
	Status    string  `json:"status"`
	Registry  string  `json:"registry"`
}

// opRecord matches the paper's Listing 1 operational dataset.
type opRecord struct {
	ASN       asn.ASN `json:"ASN"`
	StartDate string  `json:"startdate"`
	EndDate   string  `json:"enddate"`
}

// WriteAdminJSON writes the administrative dataset in the paper's
// published JSON shape (Listing 1). The output order is pinned — sorted
// by ASN, then span start, then registry — independent of the index's
// in-memory order, so the encoding is a stable identity for lives that
// the snapshot store and its golden tests can rely on.
func (ds *Dataset) WriteAdminJSON(w io.Writer) error {
	lives := make([]core.AdminLifetime, len(ds.Admin.Lifetimes))
	copy(lives, ds.Admin.Lifetimes)
	sort.SliceStable(lives, func(a, b int) bool {
		if lives[a].ASN != lives[b].ASN {
			return lives[a].ASN < lives[b].ASN
		}
		if lives[a].Span.Start != lives[b].Span.Start {
			return lives[a].Span.Start < lives[b].Span.Start
		}
		return lives[a].RIR < lives[b].RIR
	})
	enc := json.NewEncoder(w)
	for _, l := range lives {
		rec := adminRecord{
			ASN:       l.ASN,
			RegDate:   l.RegDate.String(),
			StartDate: l.Span.Start.String(),
			EndDate:   l.Span.End.String(),
			Status:    "allocated",
			Registry:  l.RIR.Token(),
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("pipeline: encoding admin dataset: %w", err)
		}
	}
	return nil
}

// WriteOpJSON writes the operational dataset (Listing 1), sorted by ASN
// then span start regardless of the index's in-memory order.
func (ds *Dataset) WriteOpJSON(w io.Writer) error {
	lives := make([]core.OpLifetime, len(ds.Ops.Lifetimes))
	copy(lives, ds.Ops.Lifetimes)
	sort.SliceStable(lives, func(a, b int) bool {
		if lives[a].ASN != lives[b].ASN {
			return lives[a].ASN < lives[b].ASN
		}
		return lives[a].Span.Start < lives[b].Span.Start
	})
	enc := json.NewEncoder(w)
	for _, l := range lives {
		rec := opRecord{
			ASN:       l.ASN,
			StartDate: l.Span.Start.String(),
			EndDate:   l.Span.End.String(),
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("pipeline: encoding op dataset: %w", err)
		}
	}
	return nil
}
