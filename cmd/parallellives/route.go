package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"parallellives/internal/obs"
	"parallellives/internal/router"
)

const routeUsage = `parallellives route -listen :8080 -shards http://127.0.0.1:8081,http://127.0.0.1:8082
parallellives route -listen :8080 \
    -shards http://127.0.0.1:8081,http://127.0.0.1:8082 \
    -shards http://127.0.0.1:9081,http://127.0.0.1:9082   # second replica of each range

Fronts a fleet of shard servers (parallellives serve processes, each
serving one file cut by parallellives shard, optionally several
replicas per cut) as a single HTTP surface.

The router handshakes with every URL at startup (/v1/shard), groups
replicas by their self-reported shard index, verifies the set forms one
complete plan, and then routes: per-ASN reads to the owning range's
replica set (round-robin across healthy replicas, failing over before
surfacing any error), aggregate reads by scatter-gather with a
deterministic lowest-index winner, /v1/stages to the lowest healthy
range. Each replica sits behind its own circuit breaker. POST
/v1/admin/reload fans the snapshot reload out to every replica; POST
/v1/admin/topology/reload — or SIGHUP — re-runs the handshake and swaps
the routing table, admitting new replicas and retiring dead ones
without dropping a request. See the router package docs and DESIGN.md
§12/§14 for the full semantics.
`

func routeVerb(fs *flag.FlagSet) verbBody {
	opts := router.Options{}
	listen := addListenFlags(fs, ":8080", &opts.ExemplarCapacity)
	drain := addTierFlags(fs, &opts.MaxInFlight, &opts.RequestTimeout)
	fs.IntVar(&opts.CacheSize, "cache", 256, "LRU response-cache capacity (entries, -1 disables)")
	// -shards is repeatable and each value may itself be comma-separated,
	// so replica groups can be listed per line in scripts without
	// building one giant argument.
	fs.Func("shards", "shard/replica base URLs, comma-separated; repeatable (several URLs reporting the same shard index form that range's replica set)", func(v string) error {
		for _, u := range strings.Split(v, ",") {
			if u = strings.TrimSpace(u); u != "" {
				opts.Shards = append(opts.Shards, u)
			}
		}
		return nil
	})
	fs.StringVar(&opts.Policy, "policy", router.PolicyPartial, "aggregate degradation policy: partial (survivors + X-Parallellives-Partial) or strict (503)")
	fs.IntVar(&opts.ReplicasMin, "replicas-min", 1, "minimum replicas per shard range for a topology to be accepted (startup and reload)")
	fs.DurationVar(&opts.HedgeAfter, "hedge-after", 0, "launch a hedged read against the next replica after this latency; first response wins (0 disables)")
	fs.IntVar(&opts.BreakerThreshold, "breaker-threshold", 5, "consecutive failures that open a replica's breaker")
	fs.DurationVar(&opts.BreakerCooldown, "breaker-cooldown", 5*time.Second, "breaker open time before a half-open probe")
	fs.DurationVar(&opts.HandshakeTimeout, "handshake-timeout", 10*time.Second, "startup window for every replica to report its identity (topology reloads retire replicas that miss it)")
	probeEvery := fs.Duration("probe-interval", 2*time.Second, "background replica probe cadence; also bounds how long a replica reloaded behind the router's back is served from the router cache")
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		if len(opts.Shards) == 0 {
			return fmt.Errorf("pass -shards with at least one shard URL")
		}
		opts.Obs = obs.New()

		fmt.Fprintf(stderr, "route: handshaking with %d replica(s)...\n", len(opts.Shards))
		rt, err := router.New(ctx, opts)
		if err != nil {
			return err
		}
		stopProbes := rt.Start(ctx, *probeEvery)
		defer stopProbes()

		// SIGHUP re-runs the handshake and swaps the routing table — the
		// signal face of POST /v1/admin/topology/reload.
		rebuild := func() {
			report, err := rt.RebuildTopology(ctx)
			switch {
			case err == nil:
				fmt.Fprintf(stderr, "route: topology generation %d: %d range(s), %d replica(s) (%d admitted, %d retired)\n",
					report.Generation, report.Ranges, report.Replicas, len(report.Admitted), len(report.Retired))
			case ctx.Err() == nil:
				fmt.Fprintln(stderr, "route: topology reload failed, previous topology retained:", err)
			}
		}
		what := fmt.Sprintf("route: routing %d replica(s) (policy=%s)", len(opts.Shards), opts.Policy)
		return listenAndServe(ctx, stderr, what, *listen, rt, *drain, rebuild)
	}
}
