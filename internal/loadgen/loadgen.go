// Package loadgen is an open-loop HTTP load generator for the serving
// tier. Open-loop means the arrival schedule is fixed up front: request
// i is launched at start + i/rate regardless of how many earlier
// requests are still in flight, and latency is measured from the
// *scheduled* start, not the send. A server that falls behind therefore
// shows the queueing delay in its percentiles instead of silently
// slowing the generator down (the coordinated-omission trap of
// closed-loop benchmarks).
//
// The workload is a weighted mix over the serving tier's read
// endpoints: per-ASN lookups sampled from the given ASN population
// (plus a miss fraction drawn uniformly from the whole ASN space),
// per-RIR alive series with varied strides, the taxonomy table, and
// the stage report. Results carry throughput, a latency distribution
// (p50/p90/p99/p999/max), and an error taxonomy that separates
// shed responses (503 with Retry-After — the tier protecting itself)
// from hard failures (other 5xx, transport errors, timeouts).
//
// Against a replicated router the generator also counts what the fleet
// absorbed: responses carrying the X-Parallellives-Failover header
// (a replica died mid-request and a sibling answered) and hedge wins
// (X-Parallellives-Hedge) are first-class outcome counts, so a chaos
// drill can assert "replicas failed over N times and the client saw
// zero errors" from the load report alone.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"parallellives/internal/asn"
)

// Mix weights the endpoint classes of the generated workload. Zero
// values drop the class; the weights need not sum to anything.
type Mix struct {
	ASN      int `json:"asn"`      // GET /v1/asn/{n}
	Series   int `json:"series"`   // GET /v1/rir/{r}/series[?stride=k]
	Taxonomy int `json:"taxonomy"` // GET /v1/taxonomy
	Stages   int `json:"stages"`   // GET /v1/stages
}

// DefaultMix approximates a read-heavy API consumer: mostly per-ASN
// lookups with a steady background of aggregate reads.
func DefaultMix() Mix { return Mix{ASN: 70, Series: 20, Taxonomy: 8, Stages: 2} }

func (m Mix) total() int { return m.ASN + m.Series + m.Taxonomy + m.Stages }

// Options configures one load run.
type Options struct {
	// Target is the base URL of the server under test.
	Target string
	// Rate is the scheduled arrival rate in requests per second.
	Rate float64
	// Duration is how long arrivals are scheduled for.
	Duration time.Duration
	// MaxInFlight caps concurrent client requests. Arrivals that find
	// the cap exhausted are counted as dropped (the client itself
	// overloaded) rather than silently delayed. 0 means 512.
	MaxInFlight int
	// Mix weights the endpoint classes. Zero-valued → DefaultMix.
	Mix Mix
	// ASNs is the population to sample per-ASN lookups from.
	ASNs []asn.ASN
	// MissRatio is the fraction of per-ASN lookups aimed at uniformly
	// random ASNs across the whole 32-bit space (almost always absent).
	MissRatio float64
	// Seed makes the request sequence reproducible.
	Seed int64
	// Client overrides the HTTP client (tests). nil → a pooled client
	// with MaxInFlight idle connections.
	Client *http.Client
}

// Result is one run's measurements, the JSON row `parallellives load` prints.
type Result struct {
	Target    string  `json:"target"`
	RateRPS   float64 `json:"rate_rps"`
	DurationS float64 `json:"duration_s"`
	Mix       Mix     `json:"mix"`

	Scheduled int64 `json:"scheduled"`
	Completed int64 `json:"completed"`
	Dropped   int64 `json:"dropped"` // client in-flight cap exhausted

	// AchievedRPS counts completed requests over the true elapsed time
	// (schedule start to last response).
	AchievedRPS float64 `json:"achieved_rps"`

	// Errors is the response taxonomy: ok, not_found, bad_request,
	// not_modified, shed (503 + Retry-After), http_5xx, transport,
	// timeout.
	Errors map[string]int64 `json:"errors"`

	// Failovers totals the replica failovers the fleet absorbed on this
	// run's behalf (sum of X-Parallellives-Failover header values);
	// HedgeWins counts responses won by a hedged second request. Both
	// stay zero against an unreplicated target.
	Failovers int64 `json:"failovers"`
	HedgeWins int64 `json:"hedge_wins"`

	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

var rirTokens = []string{"afrinic", "apnic", "arin", "lacnic", "ripencc", "all"}

// seriesStrides are the series stride variants the generator rotates
// through.
var seriesStrides = []int{1, 7, 30}

// Run executes one open-loop load run. It returns early (with partial
// results) if ctx is cancelled.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.Target == "" {
		return nil, fmt.Errorf("loadgen: no target")
	}
	if opts.Rate <= 0 || opts.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: rate and duration must be positive")
	}
	mix := opts.Mix
	if mix.total() == 0 {
		mix = DefaultMix()
	}
	if mix.ASN > 0 && len(opts.ASNs) == 0 && opts.MissRatio < 1 {
		return nil, fmt.Errorf("loadgen: ASN traffic in the mix but no population to sample")
	}
	maxInFlight := opts.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 512
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        maxInFlight,
			MaxIdleConnsPerHost: maxInFlight,
		}}
	}

	total := int64(opts.Rate * opts.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / opts.Rate)

	rng := rand.New(rand.NewSource(opts.Seed))
	paths := make([]string, total)
	for i := range paths {
		paths[i] = pickPath(rng, mix, opts)
	}

	res := &Result{
		Target:    opts.Target,
		RateRPS:   opts.Rate,
		DurationS: opts.Duration.Seconds(),
		Mix:       mix,
		Scheduled: total,
		Errors:    map[string]int64{},
	}
	var (
		mu        sync.Mutex
		latencies = make([]time.Duration, 0, total)
		wg        sync.WaitGroup
		sem       = make(chan struct{}, maxInFlight)
	)
	record := func(o outcome, d time.Duration) {
		mu.Lock()
		res.Errors[o.class]++
		res.Completed++
		res.Failovers += o.failovers
		if o.hedgeWin {
			res.HedgeWins++
		}
		latencies = append(latencies, d)
		mu.Unlock()
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
schedule:
	for i := int64(0); i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break schedule
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break schedule
		}
		select {
		case sem <- struct{}{}:
		default:
			res.Dropped++ // open loop: the slot passes, the client is saturated
			continue
		}
		wg.Add(1)
		go func(path string, scheduled time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			record(fire(ctx, client, opts.Target, path), time.Since(scheduled))
		}(paths[i], due)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if res.Completed > 0 {
		res.AchievedRPS = float64(res.Completed) / elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if n := len(latencies); n > 0 {
		pct := func(q float64) time.Duration {
			i := int(q*float64(n)+0.5) - 1
			if i < 0 {
				i = 0
			}
			if i >= n {
				i = n - 1
			}
			return latencies[i]
		}
		res.P50Ms = ms(pct(0.50))
		res.P90Ms = ms(pct(0.90))
		res.P99Ms = ms(pct(0.99))
		res.P999Ms = ms(pct(0.999))
		res.MaxMs = ms(latencies[n-1])
	}
	return res, nil
}

// pickPath draws one request from the mix.
func pickPath(rng *rand.Rand, mix Mix, opts Options) string {
	n := rng.Intn(mix.total())
	switch {
	case n < mix.ASN:
		if rng.Float64() < opts.MissRatio || len(opts.ASNs) == 0 {
			return fmt.Sprintf("/v1/asn/%d", rng.Uint32())
		}
		return fmt.Sprintf("/v1/asn/%d", opts.ASNs[rng.Intn(len(opts.ASNs))])
	case n < mix.ASN+mix.Series:
		rir := rirTokens[rng.Intn(len(rirTokens))]
		stride := seriesStrides[rng.Intn(len(seriesStrides))]
		if stride <= 1 {
			return "/v1/rir/" + rir + "/series"
		}
		return fmt.Sprintf("/v1/rir/%s/series?stride=%d", rir, stride)
	case n < mix.ASN+mix.Series+mix.Taxonomy:
		return "/v1/taxonomy"
	default:
		return "/v1/stages"
	}
}

// Replica-fleet response markers, mirroring router.FailoverHeader and
// router.HedgeHeader (pinned equal by a test so they cannot drift).
const (
	failoverHeader = "X-Parallellives-Failover"
	hedgeHeader    = "X-Parallellives-Hedge"
)

// outcome is one request's classification plus what the fleet went
// through to produce it.
type outcome struct {
	class     string
	failovers int64
	hedgeWin  bool
}

// fire sends one request and classifies the outcome.
func fire(ctx context.Context, client *http.Client, target, path string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+path, nil)
	if err != nil {
		return outcome{class: "transport"}
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return outcome{class: "timeout"}
		}
		return outcome{class: "transport"}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var o outcome
	if v := resp.Header.Get(failoverHeader); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			o.failovers = n
		}
	}
	o.hedgeWin = resp.Header.Get(hedgeHeader) == "win"
	switch {
	case resp.StatusCode == http.StatusNotModified:
		o.class = "not_modified"
	case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		o.class = "shed"
	case resp.StatusCode >= 500:
		o.class = "http_5xx"
	case resp.StatusCode == http.StatusNotFound:
		o.class = "not_found"
	case resp.StatusCode >= 400:
		o.class = "bad_request"
	default:
		o.class = "ok"
	}
	return o
}
