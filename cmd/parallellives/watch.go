package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/obs"
	"parallellives/internal/pipeline"
)

const watchUsage = `parallellives watch [flags]

Emits the chronological anomaly feed the paper's §9 proposes building
on its datasets: dormant-ASN awakenings, post-deallocation use,
never-delegated origins, lookalike (fat-finger) origins and large
internal-ASN leaks, each tagged with the §6 evidence behind it. The
dataset is built once, then the feed is printed (or, with -check, one
"was this ASN delegated on this day" question answered). The streaming
twin of this verb is parallellives tail.
`

func watchVerb(fs *flag.FlagSet, pf *pipelineFlags) verbBody {
	var (
		kinds    = fs.String("kinds", "", "comma list of event kinds (default: all)")
		limit    = fs.Int("limit", 0, "stop after N events (0 = all)")
		check    = fs.String("check", "", "one delegation check, ASN:YYYY-MM-DD, then exit")
		progress = fs.Duration("progress", 0, "print a build progress line every interval, e.g. 2s (0 disables)")
	)
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		opts := pf.options()
		stopProgress := func() {}
		if *progress > 0 {
			opts.Obs = obs.New()
			stopProgress = watchProgress(opts.Obs.Registry, *progress, stderr)
		}
		ds, err := buildDataset(ctx, opts, stderr)
		stopProgress()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "watch: build cancelled")
			return nil
		}
		if err != nil {
			return err
		}

		if *check != "" {
			return runCheck(stdout, ds, *check)
		}

		want := map[string]bool{}
		for _, k := range strings.Split(*kinds, ",") {
			if k = strings.TrimSpace(k); k != "" {
				want[k] = true
			}
		}
		events := ds.Joint.WatchEvents(core.DefaultSquatParams())
		printed := 0
		for _, e := range events {
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "watch: interrupted")
				break
			}
			if len(want) > 0 && !want[e.Kind.String()] {
				continue
			}
			victim := ""
			if e.Victim != 0 {
				victim = " victim=AS" + e.Victim.String()
			}
			fmt.Fprintf(stdout, "%s  %-22s AS%-11s %s..%s%s  %s\n",
				e.Day, e.Kind, e.ASN, e.Span.Start, e.Span.End, victim, e.Detail)
			printed++
			if *limit > 0 && printed >= *limit {
				break
			}
		}
		fmt.Fprintf(stderr, "watch: %d events (%d total in feed)\n", printed, len(events))
		return nil
	}
}

// watchProgress samples the build's registry counters every interval
// and prints a liveness line: the scan publishes per-day deltas, so
// days, route records and quarantines all move while the run is going.
// The returned stop function ends the sampler and waits for it.
func watchProgress(reg *obs.Registry, every time.Duration, stderr io.Writer) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		var lastRoutes float64
		last := time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				days, _ := reg.Value(pipeline.MetricDaysProcessed)
				routes, _ := reg.Value(pipeline.MetricRoutes)
				quar, _ := reg.Sum(pipeline.MetricQuarantined)
				rate := (routes - lastRoutes) / now.Sub(last).Seconds()
				fmt.Fprintf(stderr, "watch: progress days=%d routes=%d (%.0f records/s) quarantined=%d\n",
					int64(days), int64(routes), rate, int64(quar))
				lastRoutes, last = routes, now
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runCheck answers one "was this ASN delegated on this day" query — the
// §9 filtering primitive.
func runCheck(out io.Writer, ds *pipeline.Dataset, query string) error {
	parts := strings.SplitN(query, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bad -check %q, want ASN:YYYY-MM-DD", query)
	}
	a, err := asn.Parse(parts[0])
	if err != nil {
		return err
	}
	day, err := dates.Parse(parts[1])
	if err != nil {
		return err
	}
	v := core.NewValidator(ds.Admin)
	switch {
	case a.Reserved():
		fmt.Fprintf(out, "AS%s on %s: BOGON (special-purpose AS number)\n", a, day)
	case v.DelegatedOn(a, day):
		fmt.Fprintf(out, "AS%s on %s: DELEGATED\n", a, day)
	case v.EverDelegated(a):
		fmt.Fprintf(out, "AS%s on %s: NOT DELEGATED on this day (but delegated at another time)\n", a, day)
	default:
		fmt.Fprintf(out, "AS%s on %s: NEVER DELEGATED\n", a, day)
	}
	return nil
}
