package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"parallellives/internal/lifestore"
	"parallellives/internal/loadgen"
)

const loadUsage = `parallellives load -target http://127.0.0.1:8080 -snapshot lives.snap -rate 2000 -duration 30s

Drives an open-loop load test against a serving tier (one parallellives
serve, or a parallellives route front) and prints one JSON result row.

The arrival schedule is fixed up front (open loop): latency is measured
from each request's scheduled start, so an overloaded server shows its
queueing delay in p99/p999 instead of slowing the generator down. The
per-ASN population is sampled from the snapshot file; the error
taxonomy separates sheds (503 + Retry-After) from hard failures.
Against a replicated router, replica failovers and hedge wins absorbed
by the fleet are counted too — the numbers a chaos drill asserts on
("failovers > 0, errors == 0"), as scripts/replica_smoke.sh does.
`

func loadVerb(fs *flag.FlagSet) verbBody {
	var opts loadgen.Options
	fs.StringVar(&opts.Target, "target", "http://127.0.0.1:8080", "base URL of the tier under test")
	fs.Float64Var(&opts.Rate, "rate", 1000, "scheduled arrival rate (requests/second, open loop)")
	fs.DurationVar(&opts.Duration, "duration", 10*time.Second, "scheduled load duration")
	fs.IntVar(&opts.MaxInFlight, "inflight", 512, "client-side concurrent-request cap; arrivals beyond it are counted dropped")
	fs.Float64Var(&opts.MissRatio, "miss", 0.02, "fraction of ASN lookups aimed at uniformly random (absent) ASNs")
	fs.Int64Var(&opts.Seed, "seed", 1, "request-sequence seed")
	var (
		snapshot = fs.String("snapshot", "", "snapshot file to sample the ASN population from (required unless -miss is 1)")
		label    = fs.String("label", "", "row label copied into the output")
	)
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		opts.Target = strings.TrimRight(opts.Target, "/")
		if opts.MissRatio < 1 {
			if *snapshot == "" {
				return fmt.Errorf("pass -snapshot to sample an ASN population (or -miss 1)")
			}
			st, err := lifestore.Open(*snapshot)
			if err != nil {
				return err
			}
			opts.ASNs = st.ASNs()
			st.Close()
			fmt.Fprintf(stderr, "load: sampling %d ASNs from %s\n", len(opts.ASNs), *snapshot)
		}

		fmt.Fprintf(stderr, "load: %s rate=%g duration=%s\n", opts.Target, opts.Rate, opts.Duration)
		res, err := loadgen.Run(ctx, opts)
		if err != nil {
			return err
		}
		if res.Failovers > 0 || res.HedgeWins > 0 {
			fmt.Fprintf(stderr, "load: fleet absorbed %d failover(s), %d hedge win(s)\n",
				res.Failovers, res.HedgeWins)
		}

		row := struct {
			Label string `json:"label,omitempty"`
			*loadgen.Result
		}{Label: *label, Result: res}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(row)
	}
}
