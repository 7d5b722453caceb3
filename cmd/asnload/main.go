// Command asnload drives an open-loop load test against a serving tier
// (one asnserve, or an asnroute front) and prints one JSON result row:
//
//	asnload -target http://127.0.0.1:8080 -snapshot lives.snap \
//	        -rate 2000 -duration 30s
//
// The arrival schedule is fixed up front (open loop): latency is
// measured from each request's scheduled start, so an overloaded
// server shows its queueing delay in p99/p999 instead of slowing the
// generator down. The per-ASN population is sampled from the snapshot
// file; the error taxonomy separates sheds (503 + Retry-After) from
// hard failures. Against a replicated asnroute, replica failovers and
// hedge wins absorbed by the fleet are counted too — the numbers a
// chaos drill asserts on ("failovers > 0, errors == 0"), as
// scripts/replica_smoke.sh does.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parallellives/internal/lifestore"
	"parallellives/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "asnload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		target   = flag.String("target", "http://127.0.0.1:8080", "base URL of the tier under test")
		snapshot = flag.String("snapshot", "", "snapshot file to sample the ASN population from (required unless -miss is 1)")
		rate     = flag.Float64("rate", 1000, "scheduled arrival rate (requests/second)")
		duration = flag.Duration("duration", 10*time.Second, "scheduled load duration")
		inflight = flag.Int("inflight", 512, "client-side concurrent-request cap; arrivals beyond it are counted dropped")
		miss     = flag.Float64("miss", 0.02, "fraction of ASN lookups aimed at uniformly random (absent) ASNs")
		seed     = flag.Int64("seed", 1, "request-sequence seed")
		label    = flag.String("label", "", "row label copied into the output")
	)
	flag.Parse()

	opts := loadgen.Options{
		Target:      strings.TrimRight(*target, "/"),
		Rate:        *rate,
		Duration:    *duration,
		MaxInFlight: *inflight,
		MissRatio:   *miss,
		Seed:        *seed,
	}
	if *miss < 1 {
		if *snapshot == "" {
			return fmt.Errorf("pass -snapshot to sample an ASN population (or -miss 1)")
		}
		st, err := lifestore.Open(*snapshot)
		if err != nil {
			return err
		}
		opts.ASNs = st.ASNs()
		st.Close()
		fmt.Fprintf(os.Stderr, "asnload: sampling %d ASNs from %s\n", len(opts.ASNs), *snapshot)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "asnload: %s rate=%g duration=%s\n", opts.Target, *rate, *duration)
	res, err := loadgen.Run(ctx, opts)
	if err != nil {
		return err
	}
	if res.Failovers > 0 || res.HedgeWins > 0 {
		fmt.Fprintf(os.Stderr, "asnload: fleet absorbed %d failover(s), %d hedge win(s)\n",
			res.Failovers, res.HedgeWins)
	}

	row := struct {
		Label string `json:"label,omitempty"`
		*loadgen.Result
	}{Label: *label, Result: res}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(row)
}
