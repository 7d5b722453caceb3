// Command asnroute fronts a fleet of shard servers (asnserve
// processes, each serving one asnshard-cut file, optionally several
// replicas per cut) as a single HTTP surface:
//
//	asnroute -listen :8080 -shards http://127.0.0.1:8081,http://127.0.0.1:8082
//	asnroute -listen :8080 \
//	    -shards http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -shards http://127.0.0.1:9081,http://127.0.0.1:9082   # second replica of each range
//
// The router handshakes with every URL at startup (/v1/shard), groups
// replicas by their self-reported shard index, verifies the set forms
// one complete plan, and then routes: per-ASN reads to the owning
// range's replica set (round-robin across healthy replicas, failing
// over before surfacing any error), aggregate reads by scatter-gather
// with a deterministic lowest-index winner, /v1/stages to the lowest
// healthy range. Each replica sits behind its own circuit breaker; -policy
// picks what aggregates do when whole ranges are dark (partial
// responses with the X-Parallellives-Partial header, or strict 503s).
// -hedge-after arms hedged reads against the next replica. POST
// /v1/admin/reload fans the snapshot reload out to every replica; POST
// /v1/admin/topology/reload — or SIGHUP — re-runs the handshake and
// swaps the routing table, admitting new replicas and retiring dead
// ones without dropping a request. See the router package docs and
// DESIGN.md §12/§14 for the full semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parallellives/internal/obs"
	"parallellives/internal/router"
	"parallellives/internal/serve"
)

// shardList collects -shards values: the flag is repeatable and each
// value may itself be comma-separated, so replica groups can be listed
// per line in scripts without building one giant argument.
type shardList []string

func (s *shardList) String() string { return strings.Join(*s, ",") }

func (s *shardList) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		if u = strings.TrimSpace(u); u != "" {
			*s = append(*s, u)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "asnroute:", err)
		os.Exit(1)
	}
}

func run() error {
	var shards shardList
	flag.Var(&shards, "shards", "shard/replica base URLs, comma-separated; repeatable (several URLs reporting the same shard index form that range's replica set)")
	var (
		listen      = flag.String("listen", ":8080", "address to serve on")
		policy      = flag.String("policy", router.PolicyPartial, "aggregate degradation policy: partial or strict")
		replicasMin = flag.Int("replicas-min", 1, "minimum replicas per shard range for a topology to be accepted")
		hedgeAfter  = flag.Duration("hedge-after", 0, "launch a hedged read against the next replica after this latency (0 disables)")
		cacheSize   = flag.Int("cache", 256, "router response-cache capacity (entries, -1 disables)")
		maxInfl     = flag.Int("max-inflight", 512, "concurrent-request admission cap (-1 disables shedding)")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-request deadline (-1ns disables)")
		brkThresh   = flag.Int("breaker-threshold", 5, "consecutive failures that open a replica's breaker")
		brkCool     = flag.Duration("breaker-cooldown", 5*time.Second, "breaker open time before a half-open probe")
		handshake   = flag.Duration("handshake-timeout", 10*time.Second, "startup window for every replica to report its identity (topology reloads retire replicas that miss it)")
		probe       = flag.Duration("probe-interval", 2*time.Second, "background replica probe cadence")
		scrape      = flag.Duration("scrape-interval", 5*time.Second, "federation scrape cadence: how often each replica's /metrics folds into the fleet rollup (-1s disables)")
		exempl      = flag.Int("exemplars", 32, "slow/error request exemplars kept for /v1/debug/slow (-1 disables capture)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	)
	flag.Parse()

	if len(shards) == 0 {
		return fmt.Errorf("pass -shards with at least one shard URL")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := obs.New()
	fmt.Fprintf(os.Stderr, "asnroute: handshaking with %d replica(s)...\n", len(shards))
	rt, err := router.New(ctx, router.Options{
		Shards:           shards,
		Policy:           *policy,
		ReplicasMin:      *replicasMin,
		HedgeAfter:       *hedgeAfter,
		CacheSize:        *cacheSize,
		MaxInFlight:      *maxInfl,
		RequestTimeout:   *reqTimeout,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		HandshakeTimeout: *handshake,
		ScrapeInterval:   *scrape,
		ExemplarCapacity: *exempl,
		Obs:              o,
	})
	if err != nil {
		return err
	}

	ln, err := serve.Listen(*listen)
	if err != nil {
		return err
	}
	stopProbes := rt.Start(ctx, *probe)
	defer stopProbes()

	// SIGHUP re-runs the handshake and swaps the routing table — the
	// signal face of POST /v1/admin/topology/reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if report, err := rt.RebuildTopology(ctx); err != nil {
				if ctx.Err() == nil {
					fmt.Fprintln(os.Stderr, "asnroute: topology reload failed, previous topology retained:", err)
				}
			} else {
				fmt.Fprintf(os.Stderr, "asnroute: topology generation %d: %d range(s), %d replica(s) (%d admitted, %d retired)\n",
					report.Generation, report.Ranges, report.Replicas, len(report.Admitted), len(report.Retired))
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "asnroute: routing %d replica(s) on %s (policy=%s)\n",
		len(shards), ln.Addr(), *policy)

	err = serve.Run(ctx, ln, rt, serve.HTTPOptions{DrainTimeout: *drain})
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "asnroute: shut down after drain")
	}
	return err
}
