package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"sync"
	"time"

	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
	"parallellives/internal/pipeline"
	"parallellives/internal/serve"
	"parallellives/internal/stream"
)

const tailUsage = `parallellives tail -tail-dir days/ -checkpoint ckpt/ [-listen :8080]

The crash-safe streaming daemon: it follows a growing day directory
(one complete collector day at a time), folds each day into the running
dataset without recomputing prior days, and checkpoints its position
after every day so a crash — or kill -9 — resumes exactly where it left
off. On a shutdown signal the in-flight day is committed and published
before the verb returns. With -listen the latest snapshot is served
over HTTP, each publish hot-swapping a new generation in; -verify-batch
proves, once the window completes, that the tailed snapshot is
byte-identical to a one-shot batch build.

The tail consumes MRT bytes, so it always runs with -wire. The paired
feeder, parallellives feed, simulates the growing collector directory.
`

// tailDirFlag is the day directory feed fills and tail follows.
func tailDirFlag(fs *flag.FlagSet) *string {
	return fs.String("tail-dir", "days", "day directory the feed fills and the tail follows")
}

// tailVerb tails the day directory with durable checkpoints, optionally
// serving the latest snapshot over HTTP (each publish swaps a new
// generation in without dropping requests) and optionally proving batch
// equivalence once the window completes.
func tailVerb(fs *flag.FlagSet, pf *pipelineFlags) verbBody {
	var exemplars int
	var (
		listen      = addListenFlags(fs, "", &exemplars)
		dir         = tailDirFlag(fs)
		ckptDir     = fs.String("checkpoint", "checkpoint", "durable checkpoint-journal directory")
		snapshot    = fs.String("snapshot", "", "write each published snapshot to this path (atomically)")
		snapEvery   = fs.Int("snapshot-every", 1, "publish a full snapshot every N committed days")
		readTimeout = fs.Duration("read-timeout", 30*time.Second, "staleness deadline waiting for the next complete day")
		poll        = fs.Duration("poll", 25*time.Millisecond, "day-directory poll interval")
		reconnects  = fs.Int("reconnect-attempts", 4, "reconnect attempts after staleness before giving up")
		verifyBatch = fs.Bool("verify-batch", false, "after the window completes, run the batch pipeline and require a byte-identical snapshot")
	)
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		opts := pf.options()
		opts.Wire = true // the tail consumes MRT bytes; batch-verify must match

		o := obs.New()
		src := stream.NewDirSource(*dir, stream.DirOptions{ReadTimeout: *readTimeout, Poll: *poll})
		defer src.Close() // waits for its look-ahead read

		// Serving state: created lazily on the first published snapshot
		// (there is nothing to serve before it), then reloaded per
		// publish, which swaps the next generation in.
		var (
			tl       *stream.Tailer
			serveMu  sync.Mutex
			srv      *serve.Server
			serveErr = make(chan error, 1)
		)
		onSnapshot := func(day dates.Day, snap *lifestore.Snapshot) {
			fmt.Fprintf(stderr, "tail: published snapshot through %s (%d ASNs)\n", day, snap.Meta.ASNCount)
			if *listen != "" {
				serveMu.Lock()
				if srv == nil {
					srv = startTailServer(ctx, o, tl, *listen, exemplars, stderr, serveErr)
				} else if _, err := srv.Reload(ctx); err != nil && ctx.Err() == nil {
					fmt.Fprintln(stderr, "tail: snapshot reload failed, previous generation still serving:", err)
				}
				serveMu.Unlock()
			}
		}

		tl, err := stream.NewTailer(stream.Options{
			Pipeline:      opts,
			Source:        src,
			CheckpointDir: *ckptDir,
			SnapshotPath:  *snapshot,
			SnapshotEvery: *snapEvery,
			Reconnect:     faults.RetryPolicy{MaxAttempts: *reconnects},
			Obs:           o,
			OnSnapshot:    onSnapshot,
		})
		if err != nil {
			return err
		}
		if rec := tl.Recovery(); rec.Fresh {
			fmt.Fprintln(stderr, "tail: no checkpoint, tailing from the start of the window")
		} else {
			fmt.Fprintf(stderr, "tail: resuming from checkpoint (last day %s, torn temps %d, corrupt %d, used prev %t)\n",
				tl.Status().LastCommittedDay, rec.TornTemps, rec.CorruptCheckpoints, rec.UsedPrev)
		}

		if err := tl.Run(ctx); err != nil {
			return err
		}
		st := tl.Status()
		fmt.Fprintf(stderr, "tail: stopped: %d days committed, lag %d days, %d stale reads, %d reconnects\n",
			st.DaysCommitted, st.IngestLagDays, st.StaleReads, st.Reconnects)

		if *verifyBatch {
			if st.IngestLagDays != 0 {
				return fmt.Errorf("verify-batch: window incomplete, %d days of lag", st.IngestLagDays)
			}
			return verifyAgainstBatch(ctx, opts, tl, stderr)
		}

		// Window complete (or drained) with a server started: keep serving
		// until the shutdown signal, then collect the server's result.
		serveMu.Lock()
		serving := srv != nil
		serveMu.Unlock()
		if !serving {
			return nil
		}
		if ctx.Err() == nil {
			fmt.Fprintln(stderr, "tail: window complete, serving until shutdown")
		}
		return <-serveErr
	}
}

// startTailServer brings up the HTTP side on the first snapshot: a
// reloading server whose opener always adopts the tailer's latest
// publication, with the tailer's Status wired into /v1/health as
// "ingest". The server's result — a bind failure included, which does
// not stop ingestion — arrives on serveErr.
func startTailServer(ctx context.Context, o *obs.Obs, tl *stream.Tailer, addr string, exemplars int, stderr io.Writer, serveErr chan<- error) *serve.Server {
	open := serve.OpenFunc(func(context.Context) (serve.Source, io.Closer, string, error) {
		cur, curDay := tl.Snapshot()
		if cur == nil {
			return nil, nil, "", errors.New("no snapshot published yet")
		}
		return lifestore.NewInMemory(cur), nil, fmt.Sprintf("tail@%s", curDay), nil
	})
	// The first snapshot is published before OnSnapshot runs, so this
	// open cannot fail.
	srv, _ := serve.NewReloadable(ctx, open, serve.Options{
		Obs:              o,
		Ingest:           func() any { return tl.Status() },
		ExemplarCapacity: exemplars,
	})
	go func() {
		err := listenAndServe(ctx, stderr, "tail: serving live snapshot", addr, srv, 0, nil)
		srv.Close()
		if err != nil && ctx.Err() == nil {
			fmt.Fprintln(stderr, "tail: serving stopped, ingestion continues:", err)
		}
		serveErr <- err
	}()
	return srv
}

// verifyAgainstBatch runs the whole-window batch pipeline and requires
// its snapshot to be byte-identical to the tail's final publication —
// the crash-equivalence property, checked live (make tail-smoke).
func verifyAgainstBatch(ctx context.Context, opts pipeline.Options, tl *stream.Tailer, stderr io.Writer) error {
	snap, day := tl.Snapshot()
	if snap == nil {
		return errors.New("verify-batch: the tail published no snapshot")
	}
	got, err := lifestore.Encode(snap)
	if err != nil {
		return err
	}
	ds, err := buildDataset(ctx, opts, stderr)
	if err != nil {
		return err
	}
	want, err := lifestore.Encode(ds.Snapshot())
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("verify-batch: tailed snapshot through %s differs from the batch build (%d vs %d bytes)", day, len(got), len(want))
	}
	fmt.Fprintf(stderr, "tail: verify-batch OK: tailed snapshot is byte-identical to the batch build (%d bytes)\n", len(got))
	return nil
}
