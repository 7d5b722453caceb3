package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"parallellives/internal/obs"
	"parallellives/internal/router"
	"parallellives/internal/serve"
	"parallellives/internal/stream"
)

const statUsage = `parallellives stat -url http://127.0.0.1:8080              # one shot
parallellives stat -url http://127.0.0.1:8080 -interval 2s # live, qps from deltas

The fleet dashboard: a one-shot (or polling) terminal view of a sharded
serving tier. Pointed at a parallellives route router it reads the
topology from /v1/shards and then scrapes /metrics of every replica
that document lists, directly and concurrently — so the replica URLs
the router was given must be reachable from here. Pointed at a single
parallellives serve process (which has no /v1/shards) it scrapes that
process and renders a one-row fleet.

	SHARD  REPLICA  UP  BREAKER  GEN  REQS  QPS  P99(ms)  ERRS  LAG(d)

SHARD, REPLICA (the ordinal within the range's replica set), BREAKER
and GEN are the router's view, from /v1/shards; a bare serve process
shows "-" for the first three and its own generation. The other
columns come from the replica's own exposition. A replica that does not
answer its scrape is a row with UP 0 and "-" for its numbers, never an
error. QPS needs two scrapes to difference, so it shows "-" on the
first poll and in one-shot mode.
`

func statVerb(fs *flag.FlagSet) verbBody {
	var (
		url      = fs.String("url", "http://127.0.0.1:8080", "router (or single serve process) base URL")
		interval = fs.Duration("interval", 0, "poll cadence; 0 renders once and exits")
		count    = fs.Int("count", 0, "with -interval: stop after N renders (0 = until interrupted)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout")
	)
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		client := &http.Client{Timeout: *timeout}
		base := strings.TrimRight(*url, "/")
		bare := false
		var prev map[string]float64
		var prevAt time.Time
		renders := 0
		for {
			// A process does not change kind: once /v1/shards has answered
			// 404 later polls stop asking, so they add nothing to the
			// request counter they read.
			var rows []row
			var err error
			if !bare {
				rows, err = fleetRows(ctx, client, base)
				bare = errors.Is(err, errBare)
			}
			if bare {
				rows, err = serveRows(ctx, client, base)
			}
			if err != nil {
				if *interval <= 0 {
					return err
				}
				fmt.Fprintf(stderr, "stat: %v\n", err)
			} else {
				now := time.Now()
				render(stdout, base, rows, prev, now.Sub(prevAt))
				prev, prevAt = requestTotals(rows), now
			}
			renders++
			if *interval <= 0 || (*count > 0 && renders >= *count) {
				return nil
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(*interval):
			}
		}
	}
}

// fetch GETs one URL, trusting the peer's length no further than the
// router trusts a shard's.
func fetch(ctx context.Context, client *http.Client, url string) (status int, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = router.ReadPeerBody(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", url, err)
	}
	return resp.StatusCode, body, nil
}

// scrape reads one process's exposition.
func scrape(ctx context.Context, client *http.Client, base string) (obs.Samples, error) {
	status, body, err := fetch(ctx, client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics answered %d", base, status)
	}
	return obs.ParseExposition(body)
}

// row is one line of the dashboard: one replica of the fleet, or the
// single process itself when pointed at a bare serve process. The
// numbers mean something only when up.
type row struct {
	shard, replica, breaker, gen string

	up         bool
	reqs, errs float64
	p99        float64
	lag        string
}

// key identifies a row across polls (QPS differencing).
func (r row) key() string { return r.shard + "/" + r.replica }

// measure is the one row builder: it fills the row's numbers from what
// a serve process's own exposition says about it.
func (r *row) measure(samples obs.Samples) {
	r.up = true
	r.reqs = samples.Sum(serve.MetricRequests, nil)
	r.errs = samples.Sum(serve.MetricErrors, nil)
	r.p99 = samples.Quantile(serve.MetricLatency, 0.99, nil)
	r.lag = "-"
	if v, ok := samples.Value(stream.MetricIngestLagDays, nil); ok {
		r.lag = strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// errBare says the target has no /v1/shards: not a router, so taken for
// a bare serve process.
var errBare = errors.New("no /v1/shards")

// serveRows renders a bare serve process as a one-row fleet.
func serveRows(ctx context.Context, client *http.Client, base string) ([]row, error) {
	samples, err := scrape(ctx, client, base)
	if err != nil {
		return nil, err
	}
	r := row{shard: "-", replica: "-", breaker: "-", gen: "-"}
	if v, ok := samples.Value(serve.MetricGeneration, nil); ok {
		r.gen = strconv.FormatFloat(v, 'g', -1, 64)
	}
	r.measure(samples)
	return []row{r}, nil
}

// fleetRows reads a router's routing table from /v1/shards and scrapes
// every replica it lists, directly and concurrently. Rows follow the
// document, which the router emits in (shard, ordinal) order.
func fleetRows(ctx context.Context, client *http.Client, base string) ([]row, error) {
	status, body, err := fetch(ctx, client, base+"/v1/shards")
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, errBare
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/shards answered %d", base, status)
	}
	var topo struct {
		Shards []struct {
			Index    int `json:"index"`
			Replicas []struct {
				URL     string `json:"url"`
				Ordinal int    `json:"ordinal"`
				Breaker string `json:"breaker"`
				Gen     int64  `json:"gen"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &topo); err != nil {
		return nil, fmt.Errorf("%s/v1/shards: %w", base, err)
	}
	var rows []row
	var urls []string
	for _, sh := range topo.Shards {
		for _, rep := range sh.Replicas {
			rows = append(rows, row{
				shard: strconv.Itoa(sh.Index), replica: strconv.Itoa(rep.Ordinal),
				breaker: rep.Breaker, gen: strconv.FormatInt(rep.Gen, 10),
			})
			urls = append(urls, rep.URL)
		}
	}
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if samples, err := scrape(ctx, client, urls[i]); err == nil {
				rows[i].measure(samples)
			}
		}()
	}
	wg.Wait()
	return rows, nil
}

func requestTotals(rows []row) map[string]float64 {
	t := make(map[string]float64, len(rows))
	for _, r := range rows {
		if r.up {
			t[r.key()] = r.reqs
		}
	}
	return t
}

func render(w io.Writer, target string, rows []row, prev map[string]float64, dt time.Duration) {
	fmt.Fprintf(w, "%s  %s\n", target, time.Now().Format("15:04:05"))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tREPLICA\tUP\tBREAKER\tGEN\tREQS\tQPS\tP99(ms)\tERRS\tLAG(d)")
	for _, r := range rows {
		if !r.up {
			fmt.Fprintf(tw, "%s\t%s\t0\t%s\t%s\t-\t-\t-\t-\t-\n", r.shard, r.replica, r.breaker, r.gen)
			continue
		}
		qps := "-"
		if p, ok := prev[r.key()]; ok && dt > 0 && r.reqs >= p {
			qps = fmt.Sprintf("%.1f", (r.reqs-p)/dt.Seconds())
		}
		fmt.Fprintf(tw, "%s\t%s\t1\t%s\t%s\t%.0f\t%s\t%.2f\t%.0f\t%s\n",
			r.shard, r.replica, r.breaker, r.gen, r.reqs, qps, r.p99*1000, r.errs, r.lag)
	}
	tw.Flush()
}
