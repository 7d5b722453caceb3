package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/serve"
)

const serveUsage = `parallellives serve -build -snapshot lives.snap [-verify] [world/pipeline flags]
parallellives serve -listen :8080 -snapshot lives.snap

Builds and serves ASN-lives snapshots: the bridge from the batch
pipeline to a long-running query service. -build runs the full pipeline
once and persists the dataset; -listen serves an existing snapshot,
cold-starting without any recomputation. Both together build, save,
then serve — and because one observability core spans both, /metrics
then carries the build's pipeline counters next to live serving
metrics, and /v1/stages serves the build's stage trace.

The server runs with a full lifecycle: every http.Server timeout is
set, SIGINT/SIGTERM trigger a graceful drain (bounded by -drain), and
SIGHUP — or POST /v1/admin/reload, or -follow noticing the file change —
hot-reloads the snapshot file after verifying every block, atomically
swapping generations without dropping in-flight requests.

Endpoints: /v1/asn/{n}, /v1/rir/{r}/series, /v1/taxonomy, /v1/health,
/v1/stages, /v1/admin/reload, /healthz, /readyz, /metrics, and with
-pprof the /debug/pprof/* profiles.
`

func serveVerb(fs *flag.FlagSet, pf *pipelineFlags) verbBody {
	so := serve.Options{}
	listen := addListenFlags(fs, "", &so.ExemplarCapacity)
	drain := addTierFlags(fs, &so.MaxInFlight, &so.RequestTimeout)
	fs.IntVar(&so.DefaultStride, "stride", 30, "default series downsampling stride (days)")
	fs.StringVar(&so.Replica, "replica", "", "replica identity reported on /v1/shard so a fronting router can tell same-range replicas apart (default: random per process)")
	var (
		snapshot = fs.String("snapshot", "lives.snap", "snapshot path to write (-build) or serve (-listen)")
		build    = fs.Bool("build", false, "run the pipeline and write the snapshot")
		verify   = fs.Bool("verify", false, "with -build: reopen the written snapshot and diff it against the in-memory dataset")
		pprofOn  = fs.Bool("pprof", false, "also serve /debug/pprof/* profiling endpoints")
		mmapOn   = fs.Bool("mmap", false, "memory-map the snapshot instead of reading through the descriptor (shares page cache across shard processes)")
		follow   = fs.Duration("follow", 0, "poll the snapshot file at this interval and hot-reload when it changes (0 disables) — pairs with a live tail writing -snapshot")
	)
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		if !*build && *listen == "" {
			return fmt.Errorf("nothing to do: pass -build to write a snapshot, -listen to serve one, or both")
		}

		// One observability core spans build and serve: the pipeline's
		// counters and stage trace land on the same registry /metrics
		// exposes later.
		o := obs.New()

		if *build {
			opts := pf.options()
			opts.Obs = o
			ds, err := buildDataset(ctx, opts, stderr)
			if err != nil {
				return err
			}
			snap, err := saveSnapshot(ds, *snapshot, stderr)
			if err != nil {
				return err
			}
			if *verify {
				if err := verifySnapshot(snap, *snapshot, stderr); err != nil {
					return err
				}
				fmt.Fprintln(stderr, "serve: verify OK (reopened snapshot is identical to the in-memory dataset)")
			}
		}
		if *listen == "" {
			return nil
		}

		// Open and fully verify the snapshot, then run the hardened HTTP
		// server over it until ctx is cancelled.
		openFile := lifestore.Open
		if *mmapOn {
			openFile = lifestore.OpenMapped
		}
		so.Obs = o
		srv, err := serve.NewReloadable(ctx, serve.FileOpener(openFile, *snapshot, o.Registry), so)
		if err != nil {
			return err
		}
		defer srv.Close() // after the drain: no request borrows the store any more
		handler := http.Handler(srv)
		if *pprofOn {
			// The profiling handlers live on an outer mux (net/http/pprof
			// registers them on the default one) so the serve package
			// itself stays free of pprof's global side effects.
			mux := http.NewServeMux()
			mux.Handle("/", srv)
			mux.Handle("/debug/pprof/", http.DefaultServeMux)
			handler = mux
			fmt.Fprintln(stderr, "serve: pprof enabled on /debug/pprof/")
		}

		// reload is what SIGHUP and -follow both do: a verified hot reload
		// that keeps the old generation serving when the new file is bad.
		reload := func() {
			info, err := srv.Reload(ctx)
			switch {
			case err == nil:
				fmt.Fprintf(stderr, "serve: reloaded %s (generation %d, %d ASNs)\n", info.Source, info.Gen, info.ASNCount)
			case ctx.Err() == nil:
				fmt.Fprintln(stderr, "serve: reload failed, previous snapshot still serving:", err)
			}
		}
		if *follow > 0 {
			go followFile(ctx, *snapshot, *follow, reload)
			fmt.Fprintf(stderr, "serve: following %s for changes every %v\n", *snapshot, *follow)
		}

		what := fmt.Sprintf("serve: serving %s (%d ASNs)", *snapshot, srv.Generation().ASNCount)
		return listenAndServe(ctx, stderr, what, *listen, handler, *drain, reload)
	}
}

// followFile calls changed whenever path's mtime or size moves, until
// ctx ends: a live tail rewrites the snapshot atomically, and a stat
// race is harmless — the reload re-verifies every block before
// swapping, and a failed reload keeps the old generation.
func followFile(ctx context.Context, path string, every time.Duration, changed func()) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	var lastMod time.Time
	var lastSize int64
	if info, err := os.Stat(path); err == nil {
		lastMod, lastSize = info.ModTime(), info.Size()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		info, err := os.Stat(path)
		if err != nil || (info.ModTime().Equal(lastMod) && info.Size() == lastSize) {
			continue
		}
		lastMod, lastSize = info.ModTime(), info.Size()
		changed()
	}
}

// verifySnapshot proves the round trip: the file just written decodes to
// exactly the snapshot captured from the in-memory dataset.
func verifySnapshot(want *lifestore.Snapshot, path string, stderr io.Writer) error {
	st, err := lifestore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	got, err := st.Snapshot()
	if err != nil {
		return err
	}
	if diffs := lifestore.Diff(want, got); len(diffs) > 0 {
		for i, d := range diffs {
			if i >= 10 {
				fmt.Fprintf(stderr, "serve: ... and %d more differences\n", len(diffs)-i)
				break
			}
			fmt.Fprintln(stderr, "serve: diff:", d)
		}
		return fmt.Errorf("verify failed: reopened snapshot differs from the in-memory dataset in %d places", len(diffs))
	}
	return nil
}
