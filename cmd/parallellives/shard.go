package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parallellives/internal/lifestore"
)

const shardUsage = `parallellives shard -snapshot lives.snap -shards 4 -out shards/lives.%d.snap

Cuts an unsharded snapshot into N self-contained shard files, each
carrying one contiguous ASN range plus the global sections (taxonomy,
series, health) whole.

The cut is deterministic for a given snapshot and count — the plan's
fingerprint is recorded in every shard file, and the router refuses to
assemble shards from different plans. Each output is itself a valid
snapshot: parallellives serve serves a shard file unmodified, reporting
its range on /v1/shard.
`

func shardVerb(fs *flag.FlagSet) verbBody {
	var (
		snapshot = fs.String("snapshot", "lives.snap", "unsharded snapshot to cut")
		shards   = fs.Int("shards", 4, "number of shard files to write")
		out      = fs.String("out", "lives.%d.snap", "output path pattern; %d becomes the shard index")
		verify   = fs.Bool("verify", false, "reopen every shard and verify block checksums and the plan fingerprint after writing")
	)
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		if !strings.Contains(*out, "%d") {
			return fmt.Errorf("-out %q must contain %%d for the shard index", *out)
		}
		if dir := filepath.Dir(*out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}

		t0 := time.Now()
		st, err := lifestore.Open(*snapshot)
		if err != nil {
			return err
		}
		snap, err := st.Snapshot()
		st.Close()
		if err != nil {
			return err
		}
		if snap.Shard != nil {
			return fmt.Errorf("%s is already shard %d/%d; cut from the unsharded snapshot", *snapshot, snap.Shard.Index, snap.Shard.Count)
		}

		plan, paths, err := lifestore.SaveSharded(snap, *shards, *out)
		if err != nil {
			return err
		}
		for i, path := range paths {
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			r := plan.Ranges[i]
			fmt.Fprintf(stderr, "shard: %s shard %d/%d AS%s-AS%s (%d ASNs, %d bytes)\n",
				path, i, plan.Count, r.Lo, r.Hi, r.ASNs, info.Size())
		}
		if *verify {
			for _, path := range paths {
				sst, si, err := lifestore.OpenShard(path)
				if err != nil {
					return fmt.Errorf("verifying %s: %w", path, err)
				}
				if err := sst.VerifyBlocks(); err != nil {
					sst.Close()
					return fmt.Errorf("verifying %s: %w", path, err)
				}
				sst.Close()
				if si.Sum != plan.Sum {
					return fmt.Errorf("%s carries fingerprint %08x, plan is %08x", path, si.Sum, plan.Sum)
				}
			}
			fmt.Fprintln(stderr, "shard: verify OK (all shards reopen and checksum clean)")
		}
		fmt.Fprintf(stderr, "shard: %d shards (plan %08x) written in %v\n",
			plan.Count, plan.Sum, time.Since(t0).Round(time.Millisecond))
		return nil
	}
}
