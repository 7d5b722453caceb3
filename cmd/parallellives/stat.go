package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
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
serving tier, read entirely from one /metrics scrape of a parallellives
route router — or of a single parallellives serve process, which
renders as a one-row fleet.

Against a router with federation enabled (the default), one row per
replica comes from the parallellives_fleet_* rollup the router
re-exports after scraping its fleet, plus the router's own per-replica
breaker gauges:

	SHARD  REPLICA  UP  BREAKER  GEN  REQS  QPS  P99(ms)  ERRS  LAG(d)

REPLICA is the ordinal within the range's replica set (a 1-replica
fleet shows ordinal 0 everywhere; a bare serve process shows "-"). QPS
needs two scrapes to difference, so it shows "-" on the first poll and
in one-shot mode. Replicas whose last federation scrape failed show
UP 0 with their last-known numbers. Run with -interval against a fresh
router and the first row may be empty for one federation cycle
(default 5s) — the rollup does not exist until the router has scraped
its fleet once.
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
		var prev map[string]float64
		var prevAt time.Time
		renders := 0
		for {
			samples, err := scrape(client, base+"/metrics")
			if err != nil {
				if *interval <= 0 {
					return err
				}
				fmt.Fprintf(stderr, "stat: %v\n", err)
			} else {
				now := time.Now()
				rows := buildRows(samples)
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

// scrape reads one exposition, trusting the peer's length no further
// than the router trusts a shard's.
func scrape(client *http.Client, url string) (obs.Samples, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := router.ReadPeerBody(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d", url, resp.StatusCode)
	}
	return obs.ParseExposition(body)
}

// row is one line of the dashboard: one replica of the fleet, or the
// single process itself when pointed at a bare serve process.
type row struct {
	shard      string
	replica    string
	up         float64
	upKnown    bool
	breaker    string
	gen        float64
	genKnown   bool
	reqs, errs float64
	p99        float64
	lag        float64
	lagKnown   bool
}

// key identifies a row across scrapes (QPS differencing).
func (r row) key() string { return r.shard + "/" + r.replica }

// buildRows reads the fleet from one exposition. A router exports
// fleet_* series per (shard, replica) slot plus its own per-replica
// breaker gauges; a single serve process exports serve_* series, which
// become one synthetic row.
func buildRows(samples obs.Samples) []row {
	replicas := map[string]*row{}
	get := func(shard, replica string) *row {
		k := shard + "/" + replica
		r, ok := replicas[k]
		if !ok {
			r = &row{shard: shard, replica: replica, breaker: "-"}
			replicas[k] = r
		}
		return r
	}
	for _, s := range samples {
		shard, hasShard := s.Labels["shard"]
		if !hasShard {
			continue
		}
		rep, hasRep := s.Labels["replica"]
		if !hasRep {
			rep = "-"
		}
		switch s.Name {
		case router.MetricFleetUp:
			r := get(shard, rep)
			r.up, r.upKnown = s.Value, true
		case router.MetricFleetGen:
			r := get(shard, rep)
			r.gen, r.genKnown = s.Value, true
		case router.MetricFleetRequests:
			get(shard, rep).reqs = s.Value
		case router.MetricFleetErrors:
			get(shard, rep).errs = s.Value
		case router.MetricFleetP99:
			get(shard, rep).p99 = s.Value
		case router.MetricFleetLag:
			r := get(shard, rep)
			r.lag, r.lagKnown = s.Value, true
		case router.MetricBreakerState:
			get(shard, rep).breaker = breakerName(s.Value)
		}
	}
	if len(replicas) == 0 {
		// Not a router (or federation off): render the process itself.
		r := &row{shard: "-", replica: "-", breaker: "-", up: 1, upKnown: true}
		r.reqs = samples.Sum(serve.MetricRequests, nil)
		r.errs = samples.Sum(serve.MetricErrors, nil)
		r.p99 = samples.Quantile(serve.MetricLatency, 0.99, nil)
		if v, ok := samples.Value(serve.MetricGeneration, nil); ok {
			r.gen, r.genKnown = v, true
		}
		if v, ok := samples.Value(stream.MetricIngestLagDays, nil); ok {
			r.lag, r.lagKnown = v, true
		}
		if r.reqs == 0 && r.errs == 0 {
			return nil
		}
		return []row{*r}
	}
	out := make([]row, 0, len(replicas))
	for _, r := range replicas {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := strconv.Atoi(out[i].shard)
		b, _ := strconv.Atoi(out[j].shard)
		if a != b {
			return a < b
		}
		c, _ := strconv.Atoi(out[i].replica)
		d, _ := strconv.Atoi(out[j].replica)
		return c < d
	})
	return out
}

func breakerName(v float64) string {
	switch v {
	case 0:
		return "closed"
	case 1:
		return "open"
	case 2:
		return "half-open"
	}
	return fmt.Sprintf("?%g", v)
}

func requestTotals(rows []row) map[string]float64 {
	t := make(map[string]float64, len(rows))
	for _, r := range rows {
		t[r.key()] = r.reqs
	}
	return t
}

func render(w io.Writer, target string, rows []row, prev map[string]float64, dt time.Duration) {
	fmt.Fprintf(w, "%s  %s\n", target, time.Now().Format("15:04:05"))
	if len(rows) == 0 {
		fmt.Fprintln(w, "  (no fleet or serve metrics yet — federation may not have scraped)")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tREPLICA\tUP\tBREAKER\tGEN\tREQS\tQPS\tP99(ms)\tERRS\tLAG(d)")
	for _, r := range rows {
		qps := "-"
		if prev != nil && dt > 0 {
			if p, ok := prev[r.key()]; ok && r.reqs >= p {
				qps = fmt.Sprintf("%.1f", (r.reqs-p)/dt.Seconds())
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.0f\t%s\t%.2f\t%.0f\t%s\n",
			r.shard, r.replica, optional(r.up, r.upKnown), r.breaker, optional(r.gen, r.genKnown),
			r.reqs, qps, r.p99*1000, r.errs, optional(r.lag, r.lagKnown))
	}
	tw.Flush()
}

func optional(v float64, known bool) string {
	if !known {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
