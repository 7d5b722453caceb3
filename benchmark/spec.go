package main

// This file is the benchmark's contract in Go form: the workloads, the
// metrics and their regression bounds, and the sizing of a run.
// BENCHMARK.json at the repo root states the same lists for the driver;
// TestSpecMatchesBenchmarkJSON keeps the two identical.

// metric is one named measurement. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before `compare`
// calls it a regression; per-layer metrics carry no bound.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Workload names. An "operation" is one full pass over the window on
// the batch workloads and one HTTP request on the serve workloads.
const (
	wlArchiveAnalyse = "archive_analyse"
	wlSimRun         = "sim_run"
	wlServeDirect    = "serve_direct"
	wlServeRouted    = "serve_routed"
)

type workload struct {
	Name string
	Why  string
}

var workloads = []workload{
	{wlArchiveAnalyse, "Figure 1 over fixed on-disk bytes, sequential: analysis layers do all the work and generation none, as on a real RouteViews/RIS archive"},
	{wlSimRun, "pipeline.Run as every command drives it (Wire, TextFiles, all cores): generation dominates and the day-sharded parallel paths and pipeline wiring are used"},
	{wlServeDirect, "closed-loop HTTP reads against one serve.Server over a heap-opened snapshot: handler, lifestore lookup and transport with no router; ASN reads miss the LRU, aggregates hit it"},
	{wlServeRouted, "the same request sequence through router.New over 2 ranges x 2 mmap-sharded replicas: adds exactly the router hop, replica picker and scatter-gather"},
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver requires it), so each is defined per
// operation rather than per pass or per request.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.20},
}

// perLayer lists the traced run's metrics. A workload that never calls
// a layer reports 0 for it, which is also the prediction README.md's
// interaction table makes for it.
var perLayer = []metric{
	// generate
	{"worldsim.generate_s", "s", "lower", 0},
	{"worldsim.lives", "count", "higher", 0},
	{"registry.build_s", "s", "lower", 0},
	{"registry.export_s", "s", "lower", 0},
	{"collector.render_s", "s", "lower", 0},
	{"collector.days", "count", "higher", 0},
	{"collector.mrt_encode_s", "s", "lower", 0},
	{"collector.mrt_mb", "MB", "higher", 0},
	{"stream.write_s", "s", "lower", 0},
	// analyse
	{"registry.dirsource_s", "s", "lower", 0},
	{"registry.textsource_s", "s", "lower", 0},
	{"registry.files", "count", "higher", 0},
	{"restore.self_s", "s", "lower", 0},
	{"restore.runs", "count", "higher", 0},
	{"core.segment_admin_s", "s", "lower", 0},
	{"core.admin_lifetimes", "count", "higher", 0},
	{"stream.dirsource_s", "s", "lower", 0},
	{"stream.mrt_mb", "MB", "higher", 0},
	{"bgpscan.observe_s", "s", "lower", 0},
	{"bgpscan.day_s", "s", "lower", 0},
	{"bgpscan.finish_s", "s", "lower", 0},
	{"bgpscan.records", "count", "higher", 0},
	{"bgpscan.routes", "count", "higher", 0},
	{"bgpscan.drops", "count", "lower", 0},
	{"mrt.decode_s", "s", "lower", 0},
	{"bgpscan.self_s", "s", "lower", 0},
	{"core.segment_op_s", "s", "lower", 0},
	{"core.op_lifetimes", "count", "higher", 0},
	{"core.join_s", "s", "lower", 0},
	// pipeline wiring
	{"pipeline.reference_s", "s", "lower", 0},
	{"pipeline.run_workers1_s", "s", "lower", 0},
	{"pipeline.parallel_speedup", "ratio", "higher", 0},
	{"pipeline.wiring_s", "s", "lower", 0},
	// harness
	{"harness.layered_pass_s", "s", "lower", 0},
	{"harness.unattributed_s", "s", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	// persist
	{"pipeline.snapshot_run_s", "s", "lower", 0},
	{"lifestore.capture_s", "s", "lower", 0},
	{"lifestore.save_s", "s", "lower", 0},
	{"lifestore.file_kb", "KB", "lower", 0},
	{"lifestore.open_s", "s", "lower", 0},
	{"lifestore.verify_s", "s", "lower", 0},
	{"lifestore.shard_save_s", "s", "lower", 0},
	{"lifestore.open_mapped_s", "s", "lower", 0},
	{"lifestore.lookup_us", "us", "lower", 0},
	// serve
	{"serve.handler_asn_us", "us", "lower", 0},
	{"serve.handler_series_us", "us", "lower", 0},
	{"serve.handler_taxonomy_us", "us", "lower", 0},
	{"serve.allocs_per_req", "count", "lower", 0},
	{"serve.asn_p50_us", "us", "lower", 0},
	{"serve.series_p50_us", "us", "lower", 0},
	{"serve.taxonomy_p50_us", "us", "lower", 0},
	{"serve.p99_us", "us", "lower", 0},
	{"http.loopback_us", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	// route
	{"router.handshake_s", "s", "lower", 0},
	{"router.shard_direct_us", "us", "lower", 0},
	{"router.asn_p50_us", "us", "lower", 0},
	{"router.series_p50_us", "us", "lower", 0},
	{"router.taxonomy_p50_us", "us", "lower", 0},
	{"router.p99_us", "us", "lower", 0},
	{"router.hop_us", "us", "lower", 0},
	{"router.cache_hit_ratio", "ratio", "higher", 0},
	{"router.failovers", "count", "lower", 0},
	{"router.hedge_wins", "count", "lower", 0},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

// sizing holds every workload parameter. It is recorded whole in each
// results file's env block, and `compare` refuses files whose sizing
// differs.
type sizing struct {
	// Batch workloads: world scale and window (worldsim needs > 41 days).
	BatchScale float64 `json:"batch_scale"`
	BatchStart string  `json:"batch_start"`
	BatchEnd   string  `json:"batch_end"`
	// MinPasses is the fewest timed passes a batch run accepts;
	// TracedPasses the fewest traced passes of a traced run.
	MinPasses    int `json:"min_passes"`
	TracedPasses int `json:"traced_passes"`

	// Serve workloads: the snapshot's world, then the traffic.
	ServeScale float64 `json:"serve_scale"`
	ServeStart string  `json:"serve_start"`
	ServeEnd   string  `json:"serve_end"`
	// Clients is the closed loop's width: that many goroutines, each on
	// its own keep-alive connection, each waiting for its reply.
	Clients int `json:"clients"`
	// WorkingSet ASNs are drawn uniformly against CacheSize LRU entries,
	// so ASN reads miss the response cache and aggregates hit it.
	WorkingSet int `json:"working_set"`
	CacheSize  int `json:"cache_size"`
	// MixASN/MixSeries/MixTaxonomy weight the request classes;
	// MissPermille of the ASN reads ask for a random, absent ASN.
	MixASN       int `json:"mix_asn"`
	MixSeries    int `json:"mix_series"`
	MixTaxonomy  int `json:"mix_taxonomy"`
	MissPermille int `json:"miss_permille"`
	// Ranges x Replicas is the routed topology.
	Ranges   int `json:"ranges"`
	Replicas int `json:"replicas"`
	// SampleEvery-th response has its body checked against the
	// reference handler.
	SampleEvery int `json:"sample_every"`
	// SweepRequests is the length of the traced run's in-process handler
	// and Store.Lookup sweeps.
	SweepRequests int `json:"sweep_requests"`

	// SetupRepeats is how many times a run sets up; setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`
}

// fullSizing is what BENCHMARK.json's numbers are measured at. It is
// sized for the driver's cap (about 37 s per run, set-up included, on
// two cores), not for the paper's scale.
var fullSizing = sizing{
	BatchScale: 0.04, BatchStart: "2004-01-01", BatchEnd: "2004-03-31", MinPasses: 5, TracedPasses: 3,
	ServeScale: 0.25, ServeStart: "2004-01-01", ServeEnd: "2004-03-31",
	Clients: 2, WorkingSet: 4000, CacheSize: 256,
	MixASN: 70, MixSeries: 20, MixTaxonomy: 10, MissPermille: 30,
	Ranges: 2, Replicas: 2, SampleEvery: 64, SweepRequests: 20000,
	SetupRepeats: 5,
}
