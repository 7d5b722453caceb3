// Command benchmark is the repository's benchmark: four workloads, four
// end-to-end metrics and a traced run that attributes time to layers.
// README.md in this directory says what each workload and metric is for.
//
//	go run ./benchmark                      every workload, untraced then traced, each in its own process
//	go run ./benchmark -workload sim_run    one workload, in this process (what the driver runs)
//	go run ./benchmark compare A.json B.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// buildDir holds everything a run writes: scratch archives and
// snapshots (removed when the run ends), traces and results files.
const buildDir = ".bench_build"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "run this one workload in this process; empty runs every workload, each in a child process")
		seed    = fs.Int64("seed", 1, "seed of the generated world and of the request sequence")
		seconds = fs.Float64("seconds", runSeconds, "how long one run measures")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
		runs    = fs.Int("runs", 1, "suite only: runs per workload and mode, each on the next seed")
		out     = fs.String("out", filepath.Join(buildDir, "results.json"), "suite only: where the results file goes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}

	var err error
	if *wl == "" {
		err = runSuite(ctx, *seed, *seconds, *runs, *out, stdout, stderr)
	} else {
		err = runOne(ctx, *wl, *seed, *seconds, *trace == 1, fullSizing, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// measure runs one workload and checks what it measured against the
// mode's metric list. dir is scratch space the run may fill.
func measure(ctx context.Context, wl string, seed int64, seconds float64, traced bool, sz sizing, dir string) (*result, *outcome, *tracer, error) {
	var (
		o   *outcome
		tr  *tracer
		err error
	)
	switch wl {
	case wlArchiveAnalyse, wlSimRun:
		o, tr, err = runBatch(ctx, wl, seed, seconds, traced, sz, dir)
	case wlServeDirect, wlServeRouted:
		o, tr, err = runServe(ctx, wl, seed, seconds, traced, sz, dir)
	default:
		err = fmt.Errorf("unknown workload")
	}
	if err == nil && traced {
		var rss float64
		if rss, err = peakRSSMB(); err == nil {
			o.set("process.peak_rss_mb", rss)
		}
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", wl, err)
	}
	res, err := o.result(traced)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", wl, err)
	}
	return res, o, tr, nil
}

// runOne runs one workload in this process and prints its metrics and
// the result line. A run whose outputs were wrong still prints its
// result (correct: false) and then fails.
func runOne(ctx context.Context, wl string, seed int64, seconds float64, traced bool, sz sizing, stdout io.Writer) (err error) {
	work := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", wl, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(work); rerr != nil && err == nil {
			err = rerr
		}
	}()

	res, o, tr, err := measure(ctx, wl, seed, seconds, traced, sz, work)
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join(buildDir, "trace-"+wl+".json")
		if err := tr.write(path); err != nil {
			return err
		}
		o.notef("%d spans written to %s", tr.count(), path)
	}
	if err := res.print(stdout, traced, o.notes); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations gave wrong output", wl, res.Failed, res.Attempted)
	}
	return nil
}
