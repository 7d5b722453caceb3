package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
	"parallellives/internal/serve"
	"parallellives/internal/worldsim"
)

// addWorldFlags binds the simulated world's scale, seed and window into
// cfg, whose current values are the defaults shown.
func addWorldFlags(fs *flag.FlagSet, cfg *worldsim.Config) {
	fs.Float64Var(&cfg.Scale, "scale", cfg.Scale, "world scale (1.0 ≈ the paper's ~127k lifetimes)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed; equal flags give byte-identical runs")
	day := func(name string, d *dates.Day) {
		fs.Func(name, fmt.Sprintf("window %s, `YYYY-MM-DD` (default %s)", name, *d), func(s string) (err error) {
			*d, err = dates.Parse(s)
			return err
		})
	}
	day("start", &cfg.Start)
	day("end", &cfg.End)
}

// pipelineFlags is the world plus every pipeline knob, bound into
// pipeline.DefaultOptions(): the one place a command line becomes
// pipeline.Options, for every verb that builds a dataset.
type pipelineFlags struct {
	opts      pipeline.Options
	chaos     bool
	chaosSeed int64
}

func addPipelineFlags(fs *flag.FlagSet) *pipelineFlags {
	p := &pipelineFlags{opts: pipeline.DefaultOptions()}
	o := &p.opts
	addWorldFlags(fs, &o.World)
	fs.BoolVar(&o.Wire, "wire", o.Wire, "route BGP data through binary MRT encode/decode; the lifetimes and taxonomy are the same either way, the scan counts are not (only this path counts MRT records)")
	fs.IntVar(&o.Timeout, "timeout", o.Timeout, "§4.2 operational inactivity timeout (days)")
	fs.IntVar(&o.Visibility, "visibility", o.Visibility, "minimum distinct peers per active ASN-day")
	fs.IntVar(&o.Workers, "workers", o.Workers, "worker goroutines for each of the scan's day shards and restoration's per-registry reads, which run side by side above 1 (0 = GOMAXPROCS); output is identical for any value")
	fs.Func("fault-policy", fmt.Sprintf("input damage handling `policy`: failfast, or degrade (quarantine damaged inputs, finish, report them in the health block) (default %s)", o.FaultPolicy), func(s string) (err error) {
		o.FaultPolicy, err = faults.ParseFaultPolicy(s)
		return err
	})
	fs.BoolVar(&p.chaos, "chaos", false, "inject the default deterministic fault storm (implies -wire; give -fault-policy degrade to ride it out)")
	fs.Int64Var(&p.chaosSeed, "chaos-seed", 1, "fault injection seed for -chaos")
	return p
}

// options is what the parsed flags say, whatever verb parsed them.
func (p *pipelineFlags) options() pipeline.Options {
	opts := p.opts
	if p.chaos {
		plan := faults.DefaultStorm(p.chaosSeed)
		opts.Inject = &plan
		opts.Wire = true // MRT faults only exist on the wire
	}
	return opts
}

// withPipeline adapts a dataset-building verb to the verbs table: the
// verb is handed the pipeline flags instead of registering its own, and
// runs only once the window they name makes sense.
func withPipeline(verb func(*flag.FlagSet, *pipelineFlags) verbBody) func(*flag.FlagSet) verbBody {
	return func(fs *flag.FlagSet) verbBody {
		p := addPipelineFlags(fs)
		body := verb(fs, p)
		return func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
			if err := checkWindow(fs, p.opts.World); err != nil {
				return err
			}
			return body(ctx, args, stdout, stderr)
		}
	}
}

// usageError reports a command-line mistake the flag package cannot see
// (it checks one value at a time): the problem, then the verb's usage.
func usageError(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(fs.Output(), format+"\n", args...)
	fs.Usage()
	return errUsage
}

// checkWindow rejects a window that ends before it starts.
func checkWindow(fs *flag.FlagSet, cfg worldsim.Config) error {
	if cfg.End < cfg.Start {
		return usageError(fs, "-end %s is before -start %s", cfg.End, cfg.Start)
	}
	return nil
}

// buildDataset runs the pipeline with progress lines on stderr — the
// one way run, serve -build, watch and tail -verify-batch get a dataset.
func buildDataset(ctx context.Context, opts pipeline.Options, stderr io.Writer) (*pipeline.Dataset, error) {
	t0 := time.Now()
	fmt.Fprintf(stderr, "building dataset (scale=%g, %s..%s, wire=%v)...\n",
		opts.World.Scale, opts.World.Start, opts.World.End, opts.Wire)
	ds, err := pipeline.RunContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "dataset ready in %v: %d admin lifetimes (%d ASNs), %d op lifetimes (%d ASNs)\n",
		time.Since(t0).Round(time.Millisecond),
		len(ds.Admin.Lifetimes), ds.AdminStats.ASNs,
		len(ds.Ops.Lifetimes), ds.Ops.ASNs())
	fmt.Fprintln(stderr, ds.Health.Summary())
	return ds, nil
}

// saveSnapshot captures ds and writes it to path atomically — the one
// way run -snapshot-out and serve -build produce a snapshot file.
func saveSnapshot(ds *pipeline.Dataset, path string, stderr io.Writer) (*lifestore.Snapshot, error) {
	snap := ds.Snapshot()
	if err := lifestore.SaveSnapshot(snap, path); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "snapshot %s written: %d ASNs, %d admin + %d op lives, %d bytes\n",
		path, snap.Meta.ASNCount, snap.Meta.AdminLives, snap.Meta.OpLives, info.Size())
	return snap, nil
}

// addListenFlags registers the flags of every verb that can bring up
// the HTTP surface (serve, route, tail): the exemplar ring size, bound
// straight into the Options field it feeds, and the address.
func addListenFlags(fs *flag.FlagSet, defaultAddr string, exemplars *int) (listen *string) {
	fs.IntVar(exemplars, "exemplars", 32, "slow/error request exemplars kept for /v1/debug/slow (-1 disables capture)")
	return fs.String("listen", defaultAddr, "serve HTTP on this address (e.g. :8080)")
}

// addTierFlags adds the admission and lifecycle knobs serve.Options and
// router.Options share by name, and the drain deadline.
func addTierFlags(fs *flag.FlagSet, maxInFlight *int, requestTimeout *time.Duration) (drain *time.Duration) {
	fs.IntVar(maxInFlight, "max-inflight", 512, "concurrent-request admission cap (-1 disables shedding)")
	fs.DurationVar(requestTimeout, "request-timeout", 10*time.Second, "per-request deadline propagated into lookups (-1ns disables)")
	return fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
}

// listenAndServe is the one HTTP bring-up. It binds first — a taken
// port or bad address fails here, before the "<what> on <addr>" line
// suggests the process is up — runs onHUP (when non-nil) on every
// SIGHUP, and serves until ctx is cancelled, draining in-flight
// requests for up to drain (0 = the serve package's default).
func listenAndServe(ctx context.Context, stderr io.Writer, what, addr string, h http.Handler, drain time.Duration, onHUP func()) error {
	ln, err := serve.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s on %s\n", what, ln.Addr())
	if onHUP != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				onHUP()
			}
		}()
	}
	err = serve.Run(ctx, ln, h, serve.HTTPOptions{DrainTimeout: drain})
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "parallellives: shut down after drain")
	}
	return err
}
